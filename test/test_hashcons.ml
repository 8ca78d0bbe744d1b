(* Tests for the hash-consed term core: semantic equivalence of the smart
   constructors against direct bit-level evaluation under random models,
   hash-consing invariants (equal <=> physical equality, id stability under
   replay, agreement of terms interned on different domains), and the
   registry-wide solver-cache clear/eviction behaviour the bounded
   per-domain cache introduced. *)

open Achilles_smt

(* --- term recipes ----------------------------------------------------------

   A recipe is a term built from explicit syntax over a small variable pool,
   paired with a denotation computed directly with [Bv] arithmetic — the
   ground-truth semantics the constructor-time rewrites must preserve. *)

type bv_recipe =
  | RVar of int (* index into the 8-bit variable pool *)
  | RConst of Bv.t
  | RBnot of bv_recipe
  | RBin of string * bv_recipe * bv_recipe (* same-width arithmetic/logic *)
  | RConcat of bv_recipe * bv_recipe
  | RExtract of int * int * bv_recipe (* hi, lo *)
  | RIte of bool_recipe * bv_recipe * bv_recipe

and bool_recipe =
  | RCmp of string * bv_recipe * bv_recipe
  | RNot of bool_recipe
  | RAnd of bool_recipe * bool_recipe
  | ROr of bool_recipe * bool_recipe

let n_vars = 3
let var_width = 8

let bin_ops =
  [
    ("add", Term.add, Bv.add);
    ("sub", Term.sub, Bv.sub);
    ("mul", Term.mul, Bv.mul);
    ("udiv", Term.udiv, Bv.udiv);
    ("urem", Term.urem, Bv.urem);
    ("band", Term.band, Bv.logand);
    ("bor", Term.bor, Bv.logor);
    ("bxor", Term.bxor, Bv.logxor);
    ("shl", Term.shl, Bv.shl);
    ("lshr", Term.lshr, Bv.lshr);
    ("ashr", Term.ashr, Bv.ashr);
  ]

let cmp_ops =
  [
    ("eq", Term.eq, Bv.equal);
    ("ult", Term.ult, Bv.ult);
    ("slt", Term.slt, Bv.slt);
    ("ule", Term.ule, Bv.ule);
    ("sle", Term.sle, Bv.sle);
  ]

(* Build through the smart constructors. *)
let rec build_bv vars = function
  | RVar i -> Term.var vars.(i)
  | RConst bv -> Term.const bv
  | RBnot r -> Term.bnot (build_bv vars r)
  | RBin (op, a, b) ->
      let f = match List.assoc_opt op (List.map (fun (n, f, _) -> (n, f)) bin_ops) with
        | Some f -> f
        | None -> invalid_arg op
      in
      f (build_bv vars a) (build_bv vars b)
  | RConcat (a, b) -> Term.concat (build_bv vars a) (build_bv vars b)
  | RExtract (hi, lo, r) -> Term.extract ~hi ~lo (build_bv vars r)
  | RIte (c, a, b) ->
      Term.ite (build_bool vars c) (build_bv vars a) (build_bv vars b)

and build_bool vars = function
  | RCmp (op, a, b) ->
      let f = match List.assoc_opt op (List.map (fun (n, f, _) -> (n, f)) cmp_ops) with
        | Some f -> f
        | None -> invalid_arg op
      in
      f (build_bv vars a) (build_bv vars b)
  | RNot r -> Term.not_ (build_bool vars r)
  | RAnd (a, b) -> Term.and_ (build_bool vars a) (build_bool vars b)
  | ROr (a, b) -> Term.or_ (build_bool vars a) (build_bool vars b)

(* Denote with plain Bv arithmetic — no term machinery involved. *)
let rec denote_bv values = function
  | RVar i -> values.(i)
  | RConst bv -> bv
  | RBnot r -> Bv.lognot (denote_bv values r)
  | RBin (op, a, b) ->
      let f = match List.assoc_opt op (List.map (fun (n, _, f) -> (n, f)) bin_ops) with
        | Some f -> f
        | None -> invalid_arg op
      in
      f (denote_bv values a) (denote_bv values b)
  | RConcat (a, b) -> Bv.concat (denote_bv values a) (denote_bv values b)
  | RExtract (hi, lo, r) -> Bv.extract ~hi ~lo (denote_bv values r)
  | RIte (c, a, b) ->
      if denote_bool values c then denote_bv values a else denote_bv values b

and denote_bool values = function
  | RCmp (op, a, b) ->
      let f = match List.assoc_opt op (List.map (fun (n, _, f) -> (n, f)) cmp_ops) with
        | Some f -> f
        | None -> invalid_arg op
      in
      f (denote_bv values a) (denote_bv values b)
  | RNot r -> not (denote_bool values r)
  | RAnd (a, b) -> denote_bool values a && denote_bool values b
  | ROr (a, b) -> denote_bool values a || denote_bool values b

(* --- generators ------------------------------------------------------------ *)

let gen_const width =
  QCheck2.Gen.map
    (fun v -> RConst (Bv.make ~width (Int64.of_int v)))
    QCheck2.Gen.(int_bound ((1 lsl min width 16) - 1))

(* A bv recipe of exactly [width] bits; only 8-bit recipes can use the
   variable pool, other widths bottom out in constants. *)
let rec gen_bv ~width n =
  let open QCheck2.Gen in
  if n <= 0 then
    if width = var_width then
      oneof [ map (fun i -> RVar i) (int_bound (n_vars - 1)); gen_const width ]
    else gen_const width
  else
    let sub = gen_bv ~width (n / 2) in
    let cases =
      [
        (if width = var_width then
           map (fun i -> RVar i) (int_bound (n_vars - 1))
         else gen_const width);
        gen_const width;
        map (fun r -> RBnot r) sub;
        map3
          (fun (op, _, _) a b -> RBin (op, a, b))
          (oneofl bin_ops) sub sub;
        (* split the width across a concat *)
        (if width >= 2 then
           int_range 1 (width - 1) >>= fun lw ->
           map2
             (fun a b -> RConcat (a, b))
             (gen_bv ~width:lw (n / 2))
             (gen_bv ~width:(width - lw) (n / 2))
         else gen_const width);
        (* extract [width] bits out of something wider *)
        ( int_range 0 4 >>= fun pad_lo ->
          int_range 0 4 >>= fun pad_hi ->
          let inner = pad_lo + width + pad_hi in
          map
            (fun r -> RExtract (pad_lo + width - 1, pad_lo, r))
            (gen_bv ~width:inner (n / 2)) );
        map3
          (fun c a b -> RIte (c, a, b))
          (gen_bool (n / 2)) sub sub;
      ]
    in
    oneof cases

and gen_bool n =
  let open QCheck2.Gen in
  if n <= 0 then
    map3
      (fun (op, _, _) a b -> RCmp (op, a, b))
      (oneofl cmp_ops)
      (gen_bv ~width:var_width 0)
      (gen_bv ~width:var_width 0)
  else
    let sub = gen_bool (n / 2) in
    oneof
      [
        map3
          (fun (op, _, _) a b -> RCmp (op, a, b))
          (oneofl cmp_ops)
          (gen_bv ~width:var_width (n / 2))
          (gen_bv ~width:var_width (n / 2));
        map (fun r -> RNot r) sub;
        map2 (fun a b -> RAnd (a, b)) sub sub;
        map2 (fun a b -> ROr (a, b)) sub sub;
      ]

let gen_values =
  QCheck2.Gen.array_size (QCheck2.Gen.return n_vars)
    (QCheck2.Gen.map
       (fun v -> Bv.make ~width:var_width (Int64.of_int v))
       QCheck2.Gen.(int_bound 255))

let make_vars () =
  Array.init n_vars (fun i ->
      Term.fresh_var ~name:(Printf.sprintf "hc%d" i) (Term.Bitvec var_width))

let model_of vars values =
  Array.to_list (Array.map2 (fun v bv -> (v, Model.Vbv bv)) vars values)
  |> Model.of_list

(* --- semantic equivalence -------------------------------------------------- *)

(* Constructor-time rewrites must be invisible to evaluation: a term built
   through the smart constructors evaluates to the recipe's direct Bv
   denotation. *)
let qcheck_rewrites_preserve_bv_semantics =
  QCheck2.Test.make ~name:"smart constructors preserve bitvector semantics"
    ~count:500
    QCheck2.Gen.(pair (gen_bv ~width:var_width 4) gen_values)
    (fun (recipe, values) ->
      let vars = make_vars () in
      let m = model_of vars values in
      Model.eval_bv m (build_bv vars recipe)
      |> Bv.equal (denote_bv values recipe))

let qcheck_rewrites_preserve_bool_semantics =
  QCheck2.Test.make ~name:"smart constructors preserve boolean semantics"
    ~count:500
    QCheck2.Gen.(pair (gen_bool 4) gen_values)
    (fun (recipe, values) ->
      let vars = make_vars () in
      let m = model_of vars values in
      Model.eval_bool m (build_bool vars recipe) = denote_bool values recipe)

(* Built on another domain, on another domain's intern table. *)
let build_on_other_domain vars recipe =
  Domain.join (Domain.spawn (fun () -> build_bool vars recipe))

(* Interning is per-domain, so the same recipe built on two domains gives
   two distinct objects (only the preallocated boolean constants are
   shared): the main-domain build is shared with this domain's table, the
   other-domain build is not. Everything observable must still agree: the
   structural fallbacks of equal/compare, the stored hash and the
   rendering. Parallel search meets exactly such pairs: client predicates
   are built on the main domain and compared with terms built by the
   workers. *)
let qcheck_sharing_modes_agree =
  QCheck2.Test.make ~name:"sharing on/off build identical terms" ~count:300
    (gen_bool 4)
    (fun recipe ->
      let vars = make_vars () in
      let foreign = build_on_other_domain vars recipe in
      let local = build_bool vars recipe in
      (foreign != local || Term.bool_value local <> None)
      && Term.equal foreign local
      && Term.compare foreign local = 0
      && Term.hash foreign = Term.hash local
      && String.equal (Term.to_string foreign) (Term.to_string local))

(* --- hash-consing invariants ----------------------------------------------- *)

(* Structural equality and physical equality coincide for terms built in
   the same domain. *)
let qcheck_equal_iff_physical =
  QCheck2.Test.make ~name:"equal a b <=> a == b under sharing" ~count:300
    QCheck2.Gen.(pair (gen_bool 4) (gen_bool 4))
    (fun (r1, r2) ->
      let vars = make_vars () in
      let a = build_bool vars r1 and b = build_bool vars r2 in
      let dup = build_bool vars r1 in
      (* a rebuilt copy of the same recipe is the same object *)
      a == dup
      (* and for arbitrary pairs the two equalities agree *)
      && Term.equal a b = (a == b))

let qcheck_rebuild_is_identity =
  QCheck2.Test.make ~name:"rebuild is the identity on interned terms"
    ~count:300 (gen_bool 4)
    (fun recipe ->
      let vars = make_vars () in
      let t = build_bool vars recipe in
      Term.rebuild t == t)

(* Replaying a construction sequence from the same fresh-counter position
   reproduces the same variable ids and the same physical terms — the
   property the parallel search's shard replay depends on. *)
let test_replay_id_stability () =
  let base = Term.fresh_counter_value () in
  let build () =
    Term.set_fresh_counter base;
    let x = Term.var (Term.fresh_var ~name:"replay" (Term.Bitvec 8)) in
    let y = Term.var (Term.fresh_var ~name:"replay" (Term.Bitvec 8)) in
    [
      Term.eq (Term.add x y) (Term.int ~width:8 7);
      Term.ult x y;
      Term.and_ (Term.ult x y) (Term.not_ (Term.eq x y));
    ]
  in
  let first = build () in
  let second = build () in
  Alcotest.(check int)
    "same fresh-counter position"
    (base + 2)
    (Term.fresh_counter_value ());
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "replayed term is the same object" true (a == b);
      Alcotest.(check int) "replayed tid is stable" a.Term.tid b.Term.tid)
    first second

(* A term interned on another domain is re-interned by [rebuild] into this
   domain's table; the result is canonical (physically equal to a local
   build) and renders identically. *)
let test_rebuild_cross_domain () =
  let vars = make_vars () in
  let recipe =
    RAnd
      ( RCmp ("ult", RVar 0, RBin ("add", RVar 1, RConst (Bv.of_int ~width:8 3))),
        RNot (RCmp ("eq", RVar 0, RVar 2)) )
  in
  let foreign = build_on_other_domain vars recipe in
  let canonical = build_bool vars recipe in
  let rebuilt = Term.rebuild foreign in
  Alcotest.(check bool)
    "rebuild re-interns to the canonical object" true
    (rebuilt == canonical);
  Alcotest.(check string)
    "rendering unchanged" (Term.to_string foreign) (Term.to_string rebuilt)

(* var_ids is memoized by term id; the memo must be invisible, also for a
   term interned on another domain, whose tid means nothing here. *)
let qcheck_var_ids_memo_transparent =
  QCheck2.Test.make ~name:"var_ids agrees across sharing modes" ~count:300
    (gen_bool 4)
    (fun recipe ->
      let vars = make_vars () in
      let foreign = build_on_other_domain vars recipe in
      Term.var_ids foreign = Term.var_ids (build_bool vars recipe))

(* --- bounded solver cache -------------------------------------------------- *)

let query_of_int i =
  let x = Term.var (Term.fresh_var ~name:"cache_probe" (Term.Bitvec 16)) in
  [ Term.eq x (Term.int ~width:16 i) ]

(* clear_cache must reach every domain's cache, not just the caller's: a
   query cached inside a worker domain must not survive a clear issued from
   the main domain. *)
let test_clear_cache_all_domains () =
  Solver.reset_all_for_tests ();
  let worker_entries =
    let domains =
      List.init 2 (fun d ->
          Domain.spawn (fun () ->
              (* distinct queries per domain so each populates its own cache *)
              for i = 0 to 4 do
                ignore (Solver.is_sat (query_of_int ((d * 100) + i)))
              done;
              (Solver.cache_stats ()).Solver.cache_entries))
    in
    List.map Domain.join domains
  in
  List.iter
    (fun entries ->
      Alcotest.(check bool) "worker cached its queries" true (entries > 0))
    worker_entries;
  ignore (Solver.is_sat (query_of_int 999));
  Alcotest.(check bool)
    "aggregate sees worker + main entries" true
    (Solver.aggregate_cache_entries () > List.fold_left ( + ) 0 worker_entries - 1);
  Solver.clear_cache ();
  Alcotest.(check int)
    "clear_cache empties every domain" 0
    (Solver.aggregate_cache_entries ());
  Solver.reset_all_for_tests ()

let test_cache_eviction_at_capacity () =
  Solver.reset_all_for_tests ();
  Fun.protect
    ~finally:(fun () ->
      Solver.set_cache_capacity 65536;
      Solver.reset_all_for_tests ())
    (fun () ->
      Solver.set_cache_capacity 3;
      (* a fixed pool: re-running queries.(i) must produce the same key *)
      let queries = Array.init 10 query_of_int in
      Array.iter (fun q -> ignore (Solver.is_sat q)) queries;
      let cs = Solver.cache_stats () in
      Alcotest.(check int) "entries bounded by the cap" 3 cs.Solver.cache_entries;
      Alcotest.(check int) "evictions counted" 7 cs.Solver.cache_eviction_count;
      Alcotest.(check int)
        "misses counted for every uncached query" 10 cs.Solver.cache_miss_count;
      Alcotest.(check int)
        "stats expose the evictions" 7
        (Solver.stats ()).Solver.cache_evictions;
      (* the most recent query survived FIFO eviction and hits *)
      let hits_before = (Solver.stats ()).Solver.cache_hits in
      ignore (Solver.is_sat queries.(9));
      Alcotest.(check int)
        "most recent query still cached" (hits_before + 1)
        (Solver.stats ()).Solver.cache_hits;
      (* the oldest was evicted: re-solving it is a miss that re-enters *)
      ignore (Solver.is_sat queries.(0));
      Alcotest.(check int)
        "evicted query re-solves without a hit" (hits_before + 1)
        (Solver.stats ()).Solver.cache_hits)

let test_cache_capacity_validation () =
  Alcotest.check_raises "non-positive capacity rejected"
    (Invalid_argument "Solver.set_cache_capacity")
    (fun () -> Solver.set_cache_capacity 0)

(* --- intern counters ------------------------------------------------------- *)

let test_intern_stats_move () =
  Solver.reset_all_for_tests ();
  let vars = make_vars () in
  let x = Term.var vars.(0) and y = Term.var vars.(1) in
  let _t1 = Term.add x y in
  let hits0, created0 = Term.intern_stats () in
  let _t2 = Term.add x y in
  let hits1, created1 = Term.intern_stats () in
  Alcotest.(check bool) "duplicate construction hits" true (hits1 > hits0);
  Alcotest.(check int) "duplicate construction allocates nothing" created0
    created1;
  Solver.reset_all_for_tests ()

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "hashcons"
    [
      qsuite "semantics"
        [
          qcheck_rewrites_preserve_bv_semantics;
          qcheck_rewrites_preserve_bool_semantics;
          qcheck_sharing_modes_agree;
        ];
      qsuite "invariants"
        [
          qcheck_equal_iff_physical;
          qcheck_rebuild_is_identity;
          qcheck_var_ids_memo_transparent;
        ];
      ( "replay",
        [
          Alcotest.test_case "id stability under replay" `Quick
            test_replay_id_stability;
          Alcotest.test_case "rebuild after a cross-domain build" `Quick
            test_rebuild_cross_domain;
        ] );
      ( "solver-cache",
        [
          Alcotest.test_case "clear_cache reaches all domains" `Quick
            test_clear_cache_all_domains;
          Alcotest.test_case "FIFO eviction at capacity" `Quick
            test_cache_eviction_at_capacity;
          Alcotest.test_case "capacity validation" `Quick
            test_cache_capacity_validation;
          Alcotest.test_case "intern counters" `Quick test_intern_stats_move;
        ] );
    ]
