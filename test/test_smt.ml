(* Tests for the SMT substrate: bitvectors, terms, the SAT solver, the
   bitblaster and the solver front end. *)

open Achilles_smt

let bv = Alcotest.testable Bv.pp Bv.equal

(* --- Bv ------------------------------------------------------------------- *)

let test_bv_arith () =
  let x = Bv.of_int ~width:8 200 and y = Bv.of_int ~width:8 100 in
  Alcotest.(check bv) "add wraps" (Bv.of_int ~width:8 44) (Bv.add x y);
  Alcotest.(check bv) "sub wraps" (Bv.of_int ~width:8 156) (Bv.sub y x);
  Alcotest.(check bv) "mul wraps" (Bv.of_int ~width:8 32) (Bv.mul x y);
  Alcotest.(check bv) "udiv" (Bv.of_int ~width:8 2) (Bv.udiv x y);
  Alcotest.(check bv) "urem" (Bv.of_int ~width:8 0) (Bv.urem x y);
  Alcotest.(check bv) "udiv by zero is ones" (Bv.ones 8)
    (Bv.udiv x (Bv.zero 8));
  Alcotest.(check bv) "urem by zero is lhs" x (Bv.urem x (Bv.zero 8))

let test_bv_signed () =
  let minus_one = Bv.ones 8 in
  Alcotest.(check int64) "sign extension" (-1L) (Bv.to_signed_int64 minus_one);
  Alcotest.(check bool) "slt: -1 < 0" true (Bv.slt minus_one (Bv.zero 8));
  Alcotest.(check bool) "ult: 255 > 0" false (Bv.ult minus_one (Bv.zero 8));
  Alcotest.(check bv) "ashr fills sign"
    (Bv.ones 8)
    (Bv.ashr minus_one (Bv.of_int ~width:8 3));
  Alcotest.(check bv) "sign_extend negative"
    (Bv.of_int ~width:16 0xFFFF)
    (Bv.sign_extend ~by:8 minus_one)

let test_bv_slices () =
  let v = Bv.of_int ~width:16 0xBEEF in
  Alcotest.(check bv) "extract low byte" (Bv.of_int ~width:8 0xEF)
    (Bv.extract ~hi:7 ~lo:0 v);
  Alcotest.(check bv) "extract high byte" (Bv.of_int ~width:8 0xBE)
    (Bv.extract ~hi:15 ~lo:8 v);
  Alcotest.(check bv) "concat round-trips" v
    (Bv.concat (Bv.extract ~hi:15 ~lo:8 v) (Bv.extract ~hi:7 ~lo:0 v));
  Alcotest.(check bool) "bit 0" true (Bv.bit v 0);
  Alcotest.(check bool) "bit 4" false (Bv.bit v 4)

let test_bv_shifts_saturate () =
  let v = Bv.of_int ~width:8 0x81 in
  Alcotest.(check bv) "shl past width" (Bv.zero 8)
    (Bv.shl v (Bv.of_int ~width:8 8));
  Alcotest.(check bv) "lshr past width" (Bv.zero 8)
    (Bv.lshr v (Bv.of_int ~width:8 200));
  Alcotest.(check bv) "ashr past width, negative" (Bv.ones 8)
    (Bv.ashr v (Bv.of_int ~width:8 200))

(* --- Term ----------------------------------------------------------------- *)

let t8 n = Term.int ~width:8 n

let test_term_folding () =
  Alcotest.(check bool) "const add folds" true
    (Term.equal (Term.add (t8 3) (t8 4)) (t8 7));
  Alcotest.(check bool) "and true" true
    (Term.equal (Term.and_ Term.tru Term.fls) Term.fls);
  let v = Term.var (Term.fresh_var ~name:"x" (Term.Bitvec 8)) in
  Alcotest.(check bool) "x + 0 = x" true (Term.equal (Term.add v (t8 0)) v);
  Alcotest.(check bool) "x * 0 = 0" true (Term.equal (Term.mul v (t8 0)) (t8 0));
  Alcotest.(check bool) "eq x x folds" true (Term.equal (Term.eq v v) Term.tru);
  Alcotest.(check bool) "ult x x folds" true
    (Term.equal (Term.ult v v) Term.fls);
  Alcotest.(check bool) "not not x" true
    (Term.equal (Term.not_ (Term.not_ (Term.eq v (t8 1)))) (Term.eq v (t8 1)))

let test_term_extract_rules () =
  let v = Term.var (Term.fresh_var ~name:"y" (Term.Bitvec 16)) in
  let full = Term.extract ~hi:15 ~lo:0 v in
  Alcotest.(check bool) "full extract is identity" true (Term.equal full v);
  let lo = Term.extract ~hi:7 ~lo:0 v in
  let nested = Term.extract ~hi:3 ~lo:2 lo in
  Alcotest.(check bool) "nested extracts fuse" true
    (Term.equal nested (Term.extract ~hi:3 ~lo:2 v));
  let w8 = Term.var (Term.fresh_var (Term.Bitvec 8)) in
  let cat = Term.concat v w8 (* v is high, w8 is low *) in
  Alcotest.(check bool) "extract of concat (low part)" true
    (Term.equal (Term.extract ~hi:7 ~lo:0 cat) w8);
  Alcotest.(check bool) "extract of concat (high part)" true
    (Term.equal (Term.extract ~hi:23 ~lo:8 cat) v)

let test_term_sorts () =
  let v = Term.var (Term.fresh_var (Term.Bitvec 8)) in
  Alcotest.check_raises "adding bool raises"
    (Term.Sort_error "add: incompatible sorts Bool and Bv8") (fun () ->
      ignore (Term.add Term.tru v));
  Alcotest.(check int) "width_of" 8 (Term.width_of v);
  Alcotest.(check bool) "sort of comparison" true
    (Term.sort_equal Term.Bool (Term.sort_of (Term.ult v (t8 1))))

let test_term_subst () =
  let x = Term.fresh_var ~name:"x" (Term.Bitvec 8) in
  let t = Term.add (Term.var x) (t8 1) in
  let replaced = Term.subst (fun v -> if v.id = x.id then Some (t8 41) else None) t in
  Alcotest.(check bool) "subst then fold" true (Term.equal replaced (t8 42))

let test_term_vars () =
  let x = Term.fresh_var ~name:"x" (Term.Bitvec 8) in
  let y = Term.fresh_var ~name:"y" (Term.Bitvec 8) in
  let t = Term.ult (Term.add (Term.var x) (Term.var y)) (Term.var x) in
  let ids = Term.var_ids t in
  Alcotest.(check (list int)) "distinct var ids" [ x.id; y.id ] ids;
  Alcotest.(check bool) "mentions x" true (Term.mentions t x);
  let z = Term.fresh_var (Term.Bitvec 8) in
  Alcotest.(check bool) "does not mention z" false (Term.mentions t z)

(* --- Sat ------------------------------------------------------------------ *)

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; b ];
  Sat.add_clause s [ a; -b ];
  (match Sat.solve s with
  | Some Sat.Sat -> ()
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "a true" true (Sat.value s a);
  Alcotest.(check bool) "b true" true (Sat.value s b)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a; b ];
  Sat.add_clause s [ a; -b ];
  Sat.add_clause s [ -a; -b ];
  match Sat.solve s with
  | Some Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_sat_pigeonhole () =
  (* 4 pigeons in 3 holes: classic small UNSAT instance exercising learning *)
  let s = Sat.create () in
  let pigeons = 4 and holes = 3 in
  let var = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (Array.to_list var.(p))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ -var.(p1).(h); -var.(p2).(h) ]
      done
    done
  done;
  match Sat.solve s with
  | Some Sat.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole should be UNSAT"

let test_sat_empty_clause () =
  let s = Sat.create () in
  Sat.add_clause s [];
  match Sat.solve s with
  | Some Sat.Unsat -> ()
  | _ -> Alcotest.fail "empty clause should be UNSAT"

(* --- pinned CDCL trajectories ------------------------------------------------ *)

(* The SAT core's search is deterministic: for a fixed sequence of
   [add_clause]/[solve] calls, clause literal order and watch-list order fix
   every propagation, conflict and decision, and witness models (so report
   digests) follow from them. The pinned fingerprints make any drift in
   either order show at unit level, as a changed count or model hash. *)
let trajectory s answer =
  let model =
    match answer with
    | Some Sat.Sat ->
        let bits =
          String.init (Sat.num_vars s) (fun i ->
              if Sat.value s (i + 1) then '1' else '0')
        in
        String.sub (Digest.to_hex (Digest.string bits)) 0 12
    | Some Sat.Unsat -> "unsat"
    | None -> "unknown"
  in
  Printf.sprintf "%s c=%d d=%d p=%d n=%d" model (Sat.conflicts s)
    (Sat.decisions s) (Sat.propagations s) (Sat.num_clauses s)

(* A seeded random 3-CNF near the satisfiability threshold, salted with
   the clause shapes [add_clause] simplifies: duplicate literals,
   tautologies, units, literals already false (or true) at the root, and
   one long clause. Solved once, then extended and re-solved under two
   assumptions, so root-level simplification of clauses added after a
   search is covered too. *)
let random_cnf_trajectory seed =
  let rng = Random.State.make [| seed |] in
  let s = Sat.create () in
  let nvars = 60 + (30 * (seed mod 4)) in
  for _ = 1 to nvars do
    ignore (Sat.new_var s)
  done;
  let lit () =
    let v = 1 + Random.State.int rng nvars in
    if Random.State.bool rng then v else -v
  in
  let clause () =
    let c = [ lit (); lit (); lit () ] in
    match Random.State.int rng 10 with
    | 0 -> List.hd c :: c (* duplicate literal *)
    | 1 -> (-List.hd c) :: c (* tautology *)
    | _ -> c
  in
  let add n =
    for _ = 1 to n do
      Sat.add_clause s (clause ())
    done
  in
  (* units first, so later clauses meet root-assigned literals *)
  for _ = 1 to 3 do
    Sat.add_clause s [ lit () ]
  done;
  add (nvars * 41 / 10);
  Sat.add_clause s (List.init 40 (fun _ -> lit ()));
  let first = trajectory s (Sat.solve s) in
  Sat.add_clause s [ lit () ];
  add (nvars / 2);
  let second = trajectory s (Sat.solve ~assumptions:[ lit (); lit () ] s) in
  first ^ " / " ^ second

let pinned_random_trajectories =
  [
    "ea3a2eee15cb c=8 d=14 p=222 n=206 / unsat c=11 d=17 p=263 n=232";
    "unsat c=39 d=43 p=1003 n=308 / unsat c=39 d=43 p=1003 n=308";
    "5f52681289f7 c=9 d=32 p=385 n=407 / unsat c=43 d=75 p=1218 n=457";
    "f00cc8981372 c=10 d=41 p=433 n=535 / unsat c=154 d=218 p=4477 n=602";
    "1ed36ef1e9b1 c=43 d=64 p=710 n=207 / unsat c=49 d=71 p=780 n=229";
    "fcdd4eaf7b2d c=28 d=44 p=659 n=311 / unsat c=28 d=44 p=661 n=342";
    "6cd0098102be c=20 d=47 p=619 n=411 / unsat c=34 d=62 p=926 n=461";
    "360242deff9b c=87 d=148 p=2674 n=525 / unsat c=363 d=502 p=10416 n=587";
    "unsat c=25 d=35 p=355 n=213 / unsat c=25 d=35 p=355 n=213";
    "c5bfd8dd3f7f c=145 d=204 p=3002 n=315 / unsat c=145 d=204 p=3002 n=315";
    "bfcf8047c660 c=185 d=283 p=4503 n=414 / unsat c=217 d=321 p=5199 n=464";
    "18e926c5fba2 c=127 d=194 p=3494 n=536 / unsat c=249 d=328 p=6764 n=602";
  ]

let test_sat_trajectories_pinned () =
  List.iteri
    (fun seed expected ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        expected (random_cnf_trajectory seed))
    pinned_random_trajectories

(* The first witness query of the FSP analysis (paper §6.2 configuration):
   the Trojan expression of the first accepting state, canonicalized as
   {!Solver.check} does and bitblasted onto a fresh instance. *)
let fsp_first_witness_cnf () =
  let open Achilles_core in
  let open Achilles_targets in
  Solver.reset_all_for_tests ();
  Term.reset_fresh_counter ();
  let search_config =
    {
      Search.default_config with
      Search.mask = Some Fsp_model.analysis_mask;
      Search.witnesses_per_path = 1;
      Search.distinct_by = Some Fsp_model.block_class;
      Search.domains = 1;
    }
  in
  let a =
    Achilles.analyze ~search_config ~layout:Fsp_model.layout
      ~clients:(Fsp_model.clients ()) ~server:Fsp_model.server ()
  in
  let first = List.hd a.Achilles.report.Search.trojans in
  let rec flatten acc = function
    | [] -> acc
    | (t : Term.t) :: rest -> (
        match t.Term.node with
        | Term.True -> flatten acc rest
        | Term.And (a, b) -> flatten acc (a :: b :: rest)
        | _ -> flatten (t :: acc) rest)
  in
  let key = List.sort_uniq Term.compare (flatten [] first.Search.symbolic) in
  let s = Sat.create () in
  let bb = Bitblast.create s in
  List.iter (Bitblast.assert_true bb) key;
  s

let pinned_fsp_trajectory = "97acd58e773a c=46 d=876 p=4785 n=5803"

let test_sat_fsp_trajectory_pinned () =
  let s = fsp_first_witness_cnf () in
  Alcotest.(check string) "first FSP witness query" pinned_fsp_trajectory
    (trajectory s (Sat.solve s))

(* Brute-force CNF evaluation over all assignments. *)
let brute_force_sat nvars clauses =
  let rec go assignment v =
    if v > nvars then
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let value = List.nth assignment (abs l - 1) in
              if l > 0 then value else not value)
            clause)
        clauses
    else go (assignment @ [ true ]) (v + 1) || go (assignment @ [ false ]) (v + 1)
  in
  go [] 1

let qcheck_sat_matches_brute_force =
  let gen =
    QCheck2.Gen.(
      let* nvars = int_range 1 6 in
      let* nclauses = int_range 1 12 in
      let lit = map2 (fun v s -> if s then v else -v) (int_range 1 nvars) bool in
      let clause = list_size (int_range 1 4) lit in
      let+ clauses = list_size (return nclauses) clause in
      (nvars, clauses))
  in
  QCheck2.Test.make ~name:"sat agrees with brute force" ~count:300 gen
    (fun (nvars, clauses) ->
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      List.iter (Sat.add_clause s) clauses;
      let expected = brute_force_sat nvars clauses in
      match Sat.solve s with
      | Some Sat.Sat ->
          expected
          && List.for_all
               (fun clause -> List.exists (Sat.lit_value s) clause)
               clauses
      | Some Sat.Unsat -> not expected
      | None -> false)

(* --- Solver / bitblast ----------------------------------------------------- *)

let fresh8 name = Term.fresh_var ~name (Term.Bitvec 8)

let check_sat terms =
  match Solver.check terms with
  | Solver.Sat m -> `Sat m
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> `Unknown

let test_solver_simple () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (match check_sat [ Term.ult vx (t8 5); Term.ugt vx (t8 2) ] with
  | `Sat m ->
      let value = Model.eval_bv m vx in
      Alcotest.(check bool) "model in range" true
        (Bv.ult value (Bv.of_int ~width:8 5) && Bv.ult (Bv.of_int ~width:8 2) value)
  | _ -> Alcotest.fail "expected SAT");
  match check_sat [ Term.ult vx (t8 5); Term.ugt vx (t8 10) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_solver_arith () =
  let x = fresh8 "x" and y = fresh8 "y" in
  let vx = Term.var x and vy = Term.var y in
  (* x + y = 10, x * 2 = y  ->  x = 10 - 2x -> 3x = 10: no 8-bit solution
     without wrap... actually 3x = 10 mod 256 has a solution because 3 is
     invertible mod 256 (3 * 171 = 513 = 1 mod 256), x = 171 * 10 mod 256 = 174. *)
  (match
     check_sat
       [ Term.eq (Term.add vx vy) (t8 10); Term.eq (Term.mul vx (t8 2)) vy ]
   with
  | `Sat m ->
      let mx = Model.eval_bv m vx and my = Model.eval_bv m vy in
      Alcotest.(check bv) "x + y = 10" (Bv.of_int ~width:8 10) (Bv.add mx my);
      Alcotest.(check bv) "2x = y" my (Bv.mul mx (Bv.of_int ~width:8 2))
  | _ -> Alcotest.fail "expected SAT");
  (* x * 2 is even: x * 2 = 3 is UNSAT *)
  match check_sat [ Term.eq (Term.mul vx (t8 2)) (t8 3) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "2x = 3 must be UNSAT in Z/256"

let test_solver_div () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (* x / 3 = 5 and x % 3 = 2 -> x = 17 *)
  match
    check_sat
      [
        Term.eq (Term.udiv vx (t8 3)) (t8 5);
        Term.eq (Term.urem vx (t8 3)) (t8 2);
      ]
  with
  | `Sat m ->
      Alcotest.(check bv) "x = 17" (Bv.of_int ~width:8 17) (Model.eval_bv m vx)
  | _ -> Alcotest.fail "expected SAT"

let test_solver_div_by_zero_semantics () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (* per SMT-LIB, x udiv 0 = 0xFF for all x *)
  match check_sat [ Term.neq (Term.udiv vx (t8 0)) (t8 0xFF) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "udiv by zero must equal ones"

let test_solver_shifts () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (* x << 1 = 0x10 -> x in {0x08, 0x88} *)
  (match check_sat [ Term.eq (Term.shl vx (t8 1)) (t8 0x10) ] with
  | `Sat m ->
      let v = Bv.value (Model.eval_bv m vx) in
      Alcotest.(check bool) "x is 0x08 or 0x88" true (v = 0x08L || v = 0x88L)
  | _ -> Alcotest.fail "expected SAT");
  (* shift saturates: x >> 9 = 0 always *)
  match check_sat [ Term.neq (Term.lshr vx (t8 9)) (t8 0) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "oversized shift must be zero"

let test_solver_signed () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  (* x <s 0 and x >u 0x7F describe the same set: both satisfiable together *)
  (match check_sat [ Term.slt vx (t8 0); Term.ule (t8 0x80) vx ] with
  | `Sat _ -> ()
  | _ -> Alcotest.fail "negative bytes exist");
  match check_sat [ Term.slt vx (t8 0); Term.ult vx (t8 0x80) ] with
  | `Unsat -> ()
  | _ -> Alcotest.fail "x <s 0 contradicts x <u 0x80"

let test_solver_concat_extract () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  let wide = Term.concat vx (t8 0xAB) in
  match
    check_sat [ Term.eq wide (Term.int ~width:16 0xCDAB) ]
  with
  | `Sat m ->
      Alcotest.(check bv) "high byte recovered" (Bv.of_int ~width:8 0xCD)
        (Model.eval_bv m vx)
  | _ -> Alcotest.fail "expected SAT"

let test_solver_ite () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  let abs_x = Term.ite (Term.slt vx (t8 0)) (Term.neg vx) vx in
  (* |x| = 5 has two solutions *)
  match check_sat [ Term.eq abs_x (t8 5); Term.slt vx (t8 0) ] with
  | `Sat m ->
      Alcotest.(check bv) "x = -5" (Bv.of_int ~width:8 251) (Model.eval_bv m vx)
  | _ -> Alcotest.fail "expected SAT"

let test_solver_implied () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  Alcotest.(check bool) "x < 5 implies x < 10" true
    (Solver.implied [ Term.ult vx (t8 5) ] (Term.ult vx (t8 10)));
  Alcotest.(check bool) "x < 10 does not imply x < 5" false
    (Solver.implied [ Term.ult vx (t8 10) ] (Term.ult vx (t8 5)))

let test_solver_unknown_on_budget () =
  (* A deliberately hard multiplication instance with a tiny conflict budget
     should report Unknown rather than a wrong answer. *)
  let w = 16 in
  let x = Term.fresh_var ~name:"x" (Term.Bitvec w) in
  let y = Term.fresh_var ~name:"y" (Term.Bitvec w) in
  let product = Term.mul (Term.var x) (Term.var y) in
  let terms =
    [
      Term.eq product (Term.int ~width:w 0x6E0F);
      Term.ugt (Term.var x) (Term.int ~width:w 1);
      Term.ugt (Term.var y) (Term.int ~width:w 1);
    ]
  in
  match Solver.check ~conflict_limit:1 terms with
  | Solver.Unknown | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "factoring 0x6E0F is satisfiable"

(* --- incremental frame contexts ---------------------------------------------- *)

let test_incremental_basic () =
  let x = fresh8 "ix" in
  let vx = Term.var x in
  let c = Solver.Frames.create () in
  let is_sat terms = Solver.Frames.is_sat c terms in
  let is_unsat terms =
    match Solver.Frames.check c terms with
    | Solver.Unsat -> true
    | Solver.Sat _ | Solver.Unknown -> false
  in
  Solver.Frames.push c (Term.ult vx (t8 10));
  Alcotest.(check bool) "x<10, x=5 sat" true (is_sat [ Term.eq vx (t8 5) ]);
  Alcotest.(check bool) "x<10, x=20 unsat" true (is_unsat [ Term.eq vx (t8 20) ]);
  (* the context survives an unsat answer under assumptions *)
  Alcotest.(check bool) "x=3 sat afterwards" true (is_sat [ Term.eq vx (t8 3) ]);
  (* a deeper frame narrows every later check *)
  Solver.Frames.push c (Term.ugt vx (t8 3));
  Alcotest.(check bool) "x=3 now unsat" true (is_unsat [ Term.eq vx (t8 3) ]);
  Alcotest.(check bool) "x=7 still sat" true (is_sat [ Term.eq vx (t8 7) ]);
  (* and leaving it restores the wider frame *)
  Solver.Frames.pop c;
  Alcotest.(check bool) "x=3 sat after pop" true (is_sat [ Term.eq vx (t8 3) ])

(* Frame checks are verdict-only: [Sat] carries no model, so witnesses come
   from the scratch solver, whose model must satisfy the same conjunction. *)
let test_incremental_models () =
  let x = fresh8 "imx" in
  let vx = Term.var x in
  let c = Solver.Frames.create () in
  Solver.Frames.push c (Term.ult vx (t8 50));
  (match Solver.Frames.check c [ Term.ugt vx (t8 40) ] with
  | Solver.Sat m ->
      Alcotest.(check bool) "frame Sat carries an empty model" true
        (Model.bindings m = [])
  | _ -> Alcotest.fail "expected SAT from the frame context");
  match Solver.check (Term.ugt vx (t8 40) :: Solver.Frames.path c) with
  | Solver.Sat m ->
      let value = Model.eval_bv m vx in
      Alcotest.(check bool) "model within both bounds" true
        (Bv.ult value (Bv.of_int ~width:8 50) && Bv.ult (Bv.of_int ~width:8 40) value)
  | _ -> Alcotest.fail "expected SAT from the scratch solver"

(* incremental answers must agree with one-shot solving on random query
   sequences over shared frames *)
let qcheck_incremental_matches_oneshot =
  let gen =
    QCheck2.Gen.(
      let* lo = int_range 0 200 in
      let* hi = int_range 0 255 in
      let* queries =
        list_size (int_range 1 6)
          (pair (int_range 0 255) (int_range 0 255))
      in
      return (lo, hi, queries))
  in
  QCheck2.Test.make ~name:"incremental agrees with one-shot" ~count:60 gen
    (fun (lo, hi, queries) ->
      let x = Term.fresh_var ~name:"qix" (Term.Bitvec 8) in
      let vx = Term.var x in
      let frames = [ Term.ule (t8 lo) vx; Term.ule vx (t8 hi) ] in
      let c = Solver.Frames.create () in
      List.iter (Solver.Frames.push c) frames;
      List.for_all
        (fun (a, b) ->
          let extra = [ Term.uge vx (t8 a); Term.ule vx (t8 b) ] in
          let incremental = Solver.Frames.is_sat c extra in
          Solver.set_cache_enabled false;
          let oneshot = Solver.is_sat (extra @ frames) in
          Solver.set_cache_enabled true;
          incremental = oneshot)
        queries)

(* --- word-level reasoning ---------------------------------------------------- *)

let unsat terms = Option.is_none (Word.bounds terms)

let test_interval_prunes () =
  let x = fresh8 "x" in
  let vx = Term.var x in
  Alcotest.(check bool) "x < 5 && x > 10 pruned" true
    (unsat [ Term.ult vx (t8 5); Term.ugt vx (t8 10) ]);
  Alcotest.(check bool) "x < 5 && x = 3 kept" false
    (unsat [ Term.ult vx (t8 5); Term.eq vx (t8 3) ]);
  Alcotest.(check bool) "x = 4 && x <> 4 pruned" true
    (unsat [ Term.eq vx (t8 4); Term.neq vx (t8 4) ]);
  Alcotest.(check bool) "edge tightening: 3 <= x <= 4, x<>3, x<>4" true
    (unsat
       [
         Term.ule (t8 3) vx; Term.ule vx (t8 4); Term.neq vx (t8 3);
         Term.neq vx (t8 4);
       ])

let test_interval_never_wrong () =
  (* soundness on a tricky satisfiable conjunction *)
  let x = fresh8 "x" in
  let vx = Term.var x in
  let terms = [ Term.ule (t8 200) vx; Term.neq vx (t8 200); Term.neq vx (t8 255) ] in
  Alcotest.(check bool) "not pruned" false (unsat terms);
  match check_sat terms with `Sat _ -> () | _ -> Alcotest.fail "expected SAT"

let test_word_images () =
  (* the concat-chain images decide without pinning; other bases do not *)
  let r = Term.var (Term.fresh_var ~name:"r" (Term.Bitvec 2)) in
  let base = Term.concat r (Term.int ~width:6 0x15) in
  (* image: 0x15, 0x55, 0x95, 0xD5 *)
  let holes vs = List.map (fun v -> Term.neq base (t8 v)) vs in
  let decided = Alcotest.(option bool) in
  Alcotest.check decided "three of four image values excluded" (Some true)
    (Word.decide ~sat:(holes [ 0x15; 0x55; 0x00 ]) (Term.neq base (t8 0x95)));
  Alcotest.check decided "all four excluded" (Some false)
    (Word.decide ~sat:(holes [ 0x15; 0x55; 0xD5 ]) (Term.neq base (t8 0x95)));
  Alcotest.check decided "outside the image" (Some false)
    (Word.decide ~sat:[] (Term.eq base (t8 0x16)));
  Alcotest.check decided "inside the image" (Some true)
    (Word.decide ~sat:(holes [ 0x15 ]) (Term.eq base (t8 0x55)));
  Alcotest.check decided "a range over a non-contiguous image is left alone"
    None
    (Word.decide ~sat:[ Term.ult base (t8 0x60) ] (Term.neq base (t8 0x15)));
  let rr = Term.concat r r in
  Alcotest.check decided "non-injective base is left alone" None
    (Word.decide ~sat:[] (Term.eq rr (Term.int ~width:4 0x6)));
  Alcotest.check decided "a pinned non-injective base is decided" (Some false)
    (Word.decide ~sat:[ Term.eq rr (Term.int ~width:4 0x5) ]
       (Term.ult rr (Term.int ~width:4 0x5)))

let test_word_64bit_edges () =
  (* unsigned arithmetic over the full width: no sign flips at the top *)
  let x = Term.var (Term.fresh_var ~name:"x64" (Term.Bitvec 64)) in
  let c v = Term.const (Bv.make ~width:64 v) in
  Alcotest.(check bool) "x > 2^64-2 && x <> 2^64-1 pruned" true
    (unsat
       [
         Term.ugt x (c 0xFFFF_FFFF_FFFF_FFFEL);
         Term.neq x (c 0xFFFF_FFFF_FFFF_FFFFL);
       ]);
  Alcotest.(check bool) "x > 2^64-2 kept" false
    (unsat [ Term.ugt x (c 0xFFFF_FFFF_FFFF_FFFEL) ]);
  Alcotest.(check (list (pair int64 int64)))
    "x > 2^64-3 && x <> 2^64-1 tightens to the point 2^64-2"
    [ (0xFFFF_FFFF_FFFF_FFFEL, 0xFFFF_FFFF_FFFF_FFFEL) ]
    (match
       Word.bounds
         [
           Term.ugt x (c 0xFFFF_FFFF_FFFF_FFFDL);
           Term.neq x (c 0xFFFF_FFFF_FFFF_FFFFL);
         ]
     with
    | Some ranges -> List.map (fun (_, (r : Word.range)) -> (r.lo, r.hi)) ranges
    | None -> []);
  Alcotest.(check (option bool)) "x > 2^63 decides x <> 0 true" (Some true)
    (Word.decide ~sat:[ Term.ugt x (c Int64.min_int) ] (Term.neq x (c 0L)));
  Alcotest.(check (option bool)) "x >= 2^64-1 decides x < 2^64-1 false"
    (Some false)
    (Word.decide
       ~sat:[ Term.uge x (c 0xFFFF_FFFF_FFFF_FFFFL) ]
       (Term.ult x (c 0xFFFF_FFFF_FFFF_FFFFL)))

(* --- property tests over the full solver ------------------------------------ *)

(* random terms over two 4-bit variables, compared against brute force *)
let qcheck_solver_matches_enumeration =
  let x = Term.fresh_var ~name:"qx" (Term.Bitvec 4) in
  let y = Term.fresh_var ~name:"qy" (Term.Bitvec 4) in
  let t4 n = Term.int ~width:4 n in
  let gen_bv_term =
    QCheck2.Gen.(
      sized @@ fix (fun self n ->
          if n <= 0 then
            oneof [ return (Term.var x); return (Term.var y);
                    map (fun v -> t4 v) (int_range 0 15) ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map2 Term.add sub sub;
                map2 Term.sub sub sub;
                map2 Term.mul sub sub;
                map2 Term.band sub sub;
                map2 Term.bor sub sub;
                map2 Term.bxor sub sub;
                map2 Term.udiv sub sub;
                map2 Term.urem sub sub;
                map Term.bnot sub;
                map2 Term.shl sub sub;
                map2 Term.lshr sub sub;
                (* slice-and-reassemble exercises the extract/concat
                   fusion rules of the smart constructors *)
                map
                  (fun t ->
                    Term.concat
                      (Term.extract ~hi:3 ~lo:2 t)
                      (Term.extract ~hi:1 ~lo:0 t))
                  sub;
                map2
                  (fun t amount ->
                    Term.extract ~hi:1 ~lo:0
                      (Term.lshr t (t4 amount)))
                  sub (int_range 0 5)
                |> map (fun narrow -> Term.zero_extend ~by:2 narrow);
              ]))
  in
  let gen_atom =
    QCheck2.Gen.(
      let* a = gen_bv_term and* b = gen_bv_term in
      oneofl
        [ Term.eq a b; Term.ult a b; Term.ule a b; Term.slt a b; Term.sle a b ])
  in
  let gen = QCheck2.Gen.(list_size (int_range 1 3) gen_atom) in
  QCheck2.Test.make ~name:"solver agrees with enumeration (2x4bit)" ~count:120
    gen (fun atoms ->
      let expected =
        let found = ref false in
        for vx = 0 to 15 do
          for vy = 0 to 15 do
            let m =
              Model.of_list
                [
                  (x, Model.Vbv (Bv.of_int ~width:4 vx));
                  (y, Model.Vbv (Bv.of_int ~width:4 vy));
                ]
            in
            if Model.satisfies m atoms then found := true
          done
        done;
        !found
      in
      match check_sat atoms with
      | `Sat m -> expected && Model.satisfies m atoms
      | `Unsat -> not expected
      | `Unknown -> false)

(* Word against brute force: [bounds] may only prune unsatisfiable
   conjunctions and [decide] may only answer the exact verdict. Each case
   draws its bases from one family of variables totalling 8 bits, so
   enumeration stays at 2^8 models: a plain 8-bit var; two 4-bit vars under
   zero_extend, concat of distinct vars, concat const var and the
   non-injective concat p p; a 2-bit and a 6-bit var under concat var const
   (an injective image with a constant in the low bits: 4 values, not
   contiguous). Most constants are one of two per-case anchors — a base's
   value under a random model, nudged by at most one — so atoms pin, hole
   and bound the same values and meet at the image's edges.
   The solver itself consults [bounds], so it would not be an independent
   witness. *)
let qcheck_word_matches_enumeration =
  let var name w = Term.fresh_var ~name (Term.Bitvec w) in
  let x = var "wx" 8 and p = var "wp" 4 and q = var "wq" 4 in
  let r = var "wr" 2 and s = var "ws" 6 in
  let vp = Term.var p and vq = Term.var q in
  let vr = Term.var r and vs = Term.var s in
  let families =
    [|
      ([ (x, 8) ], [ Term.var x ]);
      ( [ (p, 4); (q, 4) ],
        [
          Term.zero_extend ~by:4 vp;
          Term.concat vp vq;
          Term.concat (Term.int ~width:4 0xA) vq;
          Term.concat vp vp;
        ] );
      ( [ (r, 2); (s, 6) ],
        [ Term.concat vr (Term.int ~width:6 0x15); Term.concat vs vr ] );
    |]
  in
  let model vars n =
    Model.of_list
      (snd
         (List.fold_left
            (fun (shift, acc) (v, w) ->
              let bits = (n lsr shift) land ((1 lsl w) - 1) in
              (shift + w, (v, Model.Vbv (Bv.of_int ~width:w bits)) :: acc))
            (0, []) vars))
  in
  let gen =
    let open QCheck2.Gen in
    let* fam = int_range 0 2 in
    let vars, bases = families.(fam) in
    (* half the cases stay on one base, where decide can answer *)
    let* bases = oneof [ return bases; map (fun b -> [ b ]) (oneofl bases) ] in
    let* anchors =
      list_repeat 2
        (let* base = oneofl bases and* n = int_range 0 255 in
         return (Bv.to_int (Model.eval_bv (model vars n) base)))
    in
    let atom =
      let* base = oneofl bases in
      let* c =
        frequency
          [
            (1, int_range 0 255);
            ( 3,
              let* a = oneofl anchors and* nudge = int_range (-1) 1 in
              return ((a + nudge) land 0xFF) );
          ]
      in
      let+ kind = int_range 0 5 in
      let c = t8 c in
      match kind with
      | 0 -> Term.eq base c
      | 1 -> Term.neq base c
      | 2 -> Term.ult base c
      | 3 -> Term.ule base c
      | 4 -> Term.ugt base c
      | _ -> Term.uge base c
    in
    (* a conjunct and whether it is an atom conjunction: a negated
       conjunction is a disjunction Word cannot decide *)
    let rec conjunct depth =
      let* a = atom in
      let* kind =
        frequency
          ((3, return 0) :: (3, return 1)
          :: (if depth = 0 then [] else [ (2, return 2); (1, return 3) ]))
      in
      match kind with
      | 0 -> return (a, true)
      | 1 -> return (Term.not_ a, true)
      | 2 ->
          let* l, el = conjunct (depth - 1) in
          let+ r, er = conjunct (depth - 1) in
          (Term.and_ l r, el && er)
      | _ ->
          let* l, _ = conjunct (depth - 1) in
          let+ r, _ = conjunct (depth - 1) in
          (Term.not_ (Term.and_ l r), false)
    in
    pair (return fam) (list_size (int_range 1 5) (conjunct 2))
  in
  let print (_, cs) =
    String.concat " /\\ " (List.map (fun (t, _) -> Term.to_string t) cs)
  in
  QCheck2.Test.make ~name:"word matches enumeration"
    ~count:5000 ~print gen (fun (fam, conjuncts) ->
      let models = List.init 256 (model (fst families.(fam))) in
      let sat ts = List.exists (fun m -> Model.satisfies m ts) models in
      let terms = List.map fst conjuncts in
      let cond = List.hd terms and rest = List.tl terms in
      (match Word.bounds terms with
      | None -> not (sat terms)
      | Some ranges ->
          (* every model keeps every base inside its range *)
          List.for_all
            (fun m ->
              (not (Model.satisfies m terms))
              || List.for_all
                   (fun (b, (r : Word.range)) ->
                     let v = Bv.value (Model.eval_bv m b) in
                     Int64.unsigned_compare r.lo v <= 0
                     && Int64.unsigned_compare v r.hi <= 0)
                   ranges)
            models)
      && ((not (sat rest))
         ||
         match Word.decide ~sat:rest cond with
         | Some b -> b = sat terms
         | None ->
             (* complete over a plain var: the old interval cases *)
             not (fam = 0 && List.for_all snd conjuncts)))

let qcheck_model_satisfies =
  (* any SAT answer must come with a model that satisfies the query *)
  let x = Term.fresh_var ~name:"mx" (Term.Bitvec 8) in
  let gen =
    QCheck2.Gen.(
      let* lo = int_range 0 255 and* hi = int_range 0 255 in
      let* exclude = int_range 0 255 in
      return
        [
          Term.ule (t8 lo) (Term.var x);
          Term.ule (Term.var x) (t8 hi);
          Term.neq (Term.var x) (t8 exclude);
        ])
  in
  QCheck2.Test.make ~name:"models satisfy their query" ~count:200 gen
    (fun terms ->
      match check_sat terms with
      | `Sat m -> Model.satisfies m terms
      | `Unsat | `Unknown -> true)

let () =
  let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests) in
  Alcotest.run "smt"
    [
      ( "bv",
        [
          Alcotest.test_case "arithmetic" `Quick test_bv_arith;
          Alcotest.test_case "signed ops" `Quick test_bv_signed;
          Alcotest.test_case "slices" `Quick test_bv_slices;
          Alcotest.test_case "shift saturation" `Quick test_bv_shifts_saturate;
        ] );
      ( "term",
        [
          Alcotest.test_case "constant folding" `Quick test_term_folding;
          Alcotest.test_case "extract rules" `Quick test_term_extract_rules;
          Alcotest.test_case "sort checking" `Quick test_term_sorts;
          Alcotest.test_case "substitution" `Quick test_term_subst;
          Alcotest.test_case "variable collection" `Quick test_term_vars;
        ] );
      ( "sat",
        [
          Alcotest.test_case "basic sat" `Quick test_sat_basic;
          Alcotest.test_case "basic unsat" `Quick test_sat_unsat;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          Alcotest.test_case "empty clause" `Quick test_sat_empty_clause;
          Alcotest.test_case "pinned trajectories" `Quick
            test_sat_trajectories_pinned;
          Alcotest.test_case "pinned FSP witness trajectory" `Slow
            test_sat_fsp_trajectory_pinned;
        ] );
      qsuite "sat-properties" [ qcheck_sat_matches_brute_force ];
      ( "solver",
        [
          Alcotest.test_case "ranges" `Quick test_solver_simple;
          Alcotest.test_case "arithmetic" `Quick test_solver_arith;
          Alcotest.test_case "division" `Quick test_solver_div;
          Alcotest.test_case "div-by-zero semantics" `Quick
            test_solver_div_by_zero_semantics;
          Alcotest.test_case "shifts" `Quick test_solver_shifts;
          Alcotest.test_case "signed comparisons" `Quick test_solver_signed;
          Alcotest.test_case "concat/extract" `Quick test_solver_concat_extract;
          Alcotest.test_case "ite" `Quick test_solver_ite;
          Alcotest.test_case "implication" `Quick test_solver_implied;
          Alcotest.test_case "unknown on tiny budget" `Quick
            test_solver_unknown_on_budget;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "sessions" `Quick test_incremental_basic;
          Alcotest.test_case "models" `Quick test_incremental_models;
        ] );
      qsuite "incremental-properties" [ qcheck_incremental_matches_oneshot ];
      ( "interval",
        [
          Alcotest.test_case "prunes contradictions" `Quick test_interval_prunes;
          Alcotest.test_case "sound on satisfiable" `Quick
            test_interval_never_wrong;
          Alcotest.test_case "64-bit edges" `Quick test_word_64bit_edges;
          Alcotest.test_case "images" `Quick test_word_images;
        ] );
      qsuite "solver-properties"
        [
          qcheck_solver_matches_enumeration;
          qcheck_model_satisfies;
          qcheck_word_matches_enumeration;
        ];
    ]
