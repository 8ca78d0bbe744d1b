(* Compiled Trojan filters, differentially verified against the solver.

   The headline property: for every bundled target, on random concrete
   messages (uniform bytes, witness mutations, and exact witnesses), the
   compiled filter's verdict equals the solver's decision of the same
   per-state Trojan queries the search reported — i.e. compilation
   (quantifier elimination included) changed nothing. Plus: every
   search-reported witness is flagged, serialization round-trips, every
   corruption is rejected rather than mis-answered, and the serve daemon
   speaks its protocol end to end (in-process and as a real subprocess). *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
open Achilles_targets
module Filter = Achilles_filter.Filter
module Daemon = Achilles_filter.Daemon

(* --- the bundled targets, mirrored from the CLI ------------------------------ *)

type setup = {
  sname : string;
  layout : Layout.t;
  clients : Ast.program list;
  server : Ast.program;
  mask : string list option;
  interp : Interp.config;
  client_interp : Interp.config option;
}

let setups =
  [
    {
      sname = "fsp";
      layout = Fsp_model.layout;
      clients = Fsp_model.clients ();
      server = Fsp_model.server;
      mask = Some Fsp_model.analysis_mask;
      interp = Interp.default_config;
      client_interp = None;
    };
    {
      sname = "pbft";
      layout = Pbft_model.layout;
      clients = [ Pbft_model.client ];
      server = Pbft_model.replica;
      mask = Some Pbft_model.analysis_mask;
      interp =
        Local_state.over_approximate ~vars:[ ("last_rid", 16) ]
          Interp.default_config;
      client_interp = None;
    };
    {
      sname = "kv";
      layout = Kv_model.layout;
      clients = [ Kv_model.client ];
      server = Kv_model.server;
      mask = Some Kv_model.analysis_mask;
      interp =
        {
          Interp.default_config with
          Interp.auto_classify = Some Kv_model.auto_classifier;
        };
      client_interp = None;
    };
    {
      sname = "gossip";
      layout = Gossip_model.layout;
      clients = [ Gossip_model.reporter ];
      server = Gossip_model.aggregator ~hardened:false ();
      mask = Some Gossip_model.analysis_mask;
      interp = Interp.default_config;
      client_interp =
        Some
          (Local_state.concrete
             ~incoming:(List.init 2 (fun _ -> Gossip_model.failure_event))
             ~prefix:Gossip_model.reporter_prefix Interp.default_config);
    };
    {
      sname = "paxos";
      layout = Paxos_model.layout;
      clients = [ Paxos_model.proposer_concrete ~value:7 ];
      server = Paxos_model.acceptor;
      mask = Some [ "mtype"; "ballot"; "value" ];
      interp =
        Local_state.concrete ~prefix:(Paxos_model.phase1_prefix ~ballot:5)
          Interp.default_config;
      client_interp = None;
    };
  ]

let compiled =
  List.map
    (fun s ->
      ( s.sname,
        lazy
          (let config =
             {
               Search.default_config with
               Search.mask = s.mask;
               Search.witnesses_per_path = 4;
               Search.interp = s.interp;
             }
           in
           let analysis =
             Achilles.analyze ~search_config:config
               ?client_interp:s.client_interp ~layout:s.layout
               ~clients:s.clients ~server:s.server ()
           in
           let filter =
             Filter.compile ~target:s.sname ~layout:s.layout
               ~report:analysis.Achilles.report ()
           in
           (s, analysis.Achilles.report, filter)) ))
    setups

let force name = Lazy.force (List.assoc name compiled)

(* --- the solver-side oracle --------------------------------------------------- *)

(* Decide each state's Trojan query on concrete bytes the way the search
   itself would: conjuncts over message bytes evaluate concretely under a
   model; conjuncts with auxiliary variables get the bytes substituted in
   and the existential residue goes to the solver. First satisfied state
   wins, like the filter. *)
let oracle (report : Search.report) (bytes : int array) =
  let rec scan = function
    | [] -> Filter.Accept
    | ((sp : Predicate.server_path), query) :: rest -> (
        match query with
        | None -> scan rest
        | Some terms ->
            let byte_of = Hashtbl.create 32 in
            Array.iteri
              (fun i (v : Term.var) -> Hashtbl.replace byte_of v.Term.id i)
              sp.Predicate.msg_vars;
            let model =
              Model.of_list
                (Array.to_list
                   (Array.mapi
                      (fun i v ->
                        (v, Model.Vbv (Bv.of_int ~width:8 bytes.(i))))
                      sp.Predicate.msg_vars))
            in
            let pure, auxed =
              List.partition
                (fun t ->
                  List.for_all
                    (fun id -> Hashtbl.mem byte_of id)
                    (Term.var_ids t))
                terms
            in
            if not (List.for_all (Model.eval_bool model) pure) then scan rest
            else if auxed = [] then Filter.Trojan_suspect sp.Predicate.sp_state_id
            else
              let bind (v : Term.var) =
                match Hashtbl.find_opt byte_of v.Term.id with
                | Some i -> Some (Term.const (Bv.of_int ~width:8 bytes.(i)))
                | None -> None
              in
              let residue = List.map (Term.subst bind) auxed in
              (match Solver.check residue with
              | Solver.Sat _ -> Filter.Trojan_suspect sp.Predicate.sp_state_id
              | Solver.Unsat -> scan rest
              | Solver.Unknown ->
                  Alcotest.fail "oracle: solver returned Unknown unbudgeted"))
  in
  scan (Search.trojan_queries report)

let pp_verdict = function
  | Filter.Accept -> "accept"
  | Filter.Trojan_suspect id -> Printf.sprintf "trojan-suspect %d" id
  | Filter.Unknown_state -> "unknown-state"

(* --- differential property ---------------------------------------------------- *)

let witness_bytes (t : Search.trojan) =
  Array.map (fun b -> Bv.to_int b) t.Search.witness

(* Uniform bytes, mutated witnesses (1-3 flipped positions), and the
   witnesses themselves: the mutation cases keep most constraints satisfied,
   which is what drives messages deep into the per-state queries. *)
let message_gen size witnesses =
  let open QCheck2.Gen in
  let uniform = array_size (return size) (int_range 0 255) in
  match witnesses with
  | [] -> uniform
  | ws ->
      let pick_witness = map Array.copy (oneofl ws) in
      let mutated =
        pick_witness >>= fun base ->
        int_range 1 3 >>= fun flips ->
        list_size (return flips) (pair (int_range 0 (size - 1)) (int_range 0 255))
        >>= fun edits ->
        List.iter (fun (i, v) -> base.(i) <- v) edits;
        return base
      in
      frequency [ (2, uniform); (3, mutated); (1, pick_witness) ]

let differential_test name =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s: filter verdict == solver verdict" name)
    ~count:10_000
    (QCheck2.Gen.delay (fun () ->
         let s, report, _ = force name in
         ignore s;
         let witnesses =
           List.filter_map
             (fun (t : Search.trojan) ->
               if t.Search.confirmed then Some (witness_bytes t) else None)
             report.Search.trojans
         in
         message_gen (Layout.total_size (List.find (fun s -> s.sname = name) setups).layout) witnesses))
    (fun bytes ->
      let _, report, filter = force name in
      let ev = Filter.evaluator filter in
      let message = Array.map (fun b -> Bv.of_int ~width:8 b) bytes in
      let got = Filter.verdict ev message in
      let expected = oracle report bytes in
      if got <> expected then
        QCheck2.Test.fail_reportf "filter says %s, solver says %s"
          (pp_verdict got) (pp_verdict expected)
      else true)

let test_witnesses_flagged () =
  List.iter
    (fun (name, _) ->
      let _, report, filter = force name in
      let ev = Filter.evaluator filter in
      List.iter
        (fun (t : Search.trojan) ->
          if t.Search.confirmed then
            match Filter.verdict ev t.Search.witness with
            | Filter.Trojan_suspect _ -> ()
            | v ->
                Alcotest.failf "%s: witness for state %d got %s" name
                  t.Search.server_state_id (pp_verdict v))
        report.Search.trojans)
    compiled

let test_exact_compilation () =
  (* the bundled targets compile without degradation — the differential
     property above is only meaningful because nothing answers unknown *)
  List.iter
    (fun (name, _) ->
      let _, _, filter = force name in
      Alcotest.(check int)
        (Printf.sprintf "%s: unknown leaves" name)
        0
        (Filter.unknown_leaves filter);
      Alcotest.(check bool)
        (Printf.sprintf "%s: has states" name)
        true
        (Filter.state_count filter > 0))
    compiled

(* MD5 of every target's serialized image: compilation is deterministic, so
   a change to the front end (Word's bounds, elimination, lowering) that
   moves a single byte of any image shows up here *)
let pinned_images =
  [
    ("fsp", "b6aa5cc6324b7141bf97bca3352e07aa");
    ("pbft", "e210182f498b537b0336b1a8bbdf8df3");
    ("kv", "af72630df463592088cd4c52eed4fb5c");
    ("gossip", "8bed2699cbcca7836021e68408f4e819");
    ("paxos", "f0b7d05d234b541c1bfa170116ab92dd");
  ]

let test_pinned_images () =
  List.iter
    (fun (name, expected) ->
      let _, _, filter = force name in
      Alcotest.(check string)
        (Printf.sprintf "%s: image MD5" name)
        expected
        (Digest.to_hex (Digest.string (Filter.to_string filter))))
    pinned_images

let test_wrong_length_is_unknown () =
  let _, _, filter = force "fsp" in
  let ev = Filter.evaluator filter in
  let short = Bytes.make (Filter.message_size filter - 1) '\000' in
  let long = Bytes.make (Filter.message_size filter + 1) '\000' in
  Alcotest.(check string) "short" "unknown-state"
    (pp_verdict (Filter.verdict_bytes ev short));
  Alcotest.(check string) "long" "unknown-state"
    (pp_verdict (Filter.verdict_bytes ev long))

(* --- the evaluator: allocation and the int64 kernel ----------------------------- *)

(* E17's traffic shape on the FSP filter: a third confirmed witnesses, a third
   witnesses with 1-3 random bytes changed, a third uniform noise. *)
let e17_mix ~seed n =
  let _, report, filter = force "fsp" in
  let size = Filter.message_size filter in
  let witnesses =
    List.filter_map
      (fun (t : Search.trojan) ->
        if t.Search.confirmed then Some (witness_bytes t) else None)
      report.Search.trojans
    |> Array.of_list
  in
  let rng = Random.State.make [| seed |] in
  Array.init n (fun i ->
      let pick () =
        Array.copy witnesses.(Random.State.int rng (Array.length witnesses))
      in
      let m =
        match i mod 3 with
        | 0 -> pick ()
        | 1 ->
            let m = pick () in
            for _ = 1 to 1 + Random.State.int rng 3 do
              m.(Random.State.int rng size) <- Random.State.int rng 256
            done;
            m
        | _ -> Array.init size (fun _ -> Random.State.int rng 256)
      in
      Bytes.init size (fun j -> Char.chr m.(j)))

(* The evaluator keeps values unboxed: a verdict allocates at most the
   [Trojan_suspect] block. *)
let test_allocation_free () =
  let _, _, filter = force "fsp" in
  let ev = Filter.evaluator filter in
  let msgs = e17_mix ~seed:0x5e17 12_000 in
  let trojans = ref 0 in
  let run () =
    trojans := 0;
    for i = 0 to Array.length msgs - 1 do
      match Filter.verdict_bytes ev msgs.(i) with
      | Filter.Trojan_suspect _ -> incr trojans
      | Filter.Accept | Filter.Unknown_state -> ()
    done
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = (Gc.minor_words () -. before) /. float_of_int (Array.length msgs) in
  Alcotest.(check bool) "the mix reaches Trojan verdicts" true (!trojans > 0);
  if words > 2. then
    Alcotest.failf "%.2f minor words per verdict (at most 2 allowed)" words

(* The filter against the per-message work it replaces: run the concrete
   server, and if it accepts, decide the Trojan queries with the solver
   oracle. Both give the same verdict on every reference message, and the
   filter judges at least 10x as many messages per second. *)
let test_faster_than_reanalysis () =
  let _, report, filter = force "fsp" in
  let ev = Filter.evaluator filter in
  let msgs = e17_mix ~seed:0x5e17 30_000 in
  let reference = Array.sub msgs 0 300 in
  let reanalyze b =
    let bytes = Array.init (Bytes.length b) (fun i -> Char.code (Bytes.get b i)) in
    let outcome =
      Concrete.run
        ~incoming:[ Array.map (fun v -> Bv.of_int ~width:8 v) bytes ]
        Fsp_model.server
    in
    if Concrete.accepted outcome then oracle report bytes else Filter.Accept
  in
  let timed f xs =
    let t0 = Unix.gettimeofday () in
    let verdicts = Array.map f xs in
    (verdicts, float_of_int (Array.length xs) /. (Unix.gettimeofday () -. t0))
  in
  Solver.clear_cache ();
  let expected, reanalysis_rate = timed reanalyze reference in
  let _, filter_rate = timed (Filter.verdict_bytes ev) msgs in
  Array.iteri
    (fun i b ->
      let got = Filter.verdict_bytes ev b in
      if got <> expected.(i) then
        Alcotest.failf "message %d: filter says %s, re-analysis says %s" i
          (pp_verdict got) (pp_verdict expected.(i)))
    reference;
  let speedup = filter_rate /. reanalysis_rate in
  Printf.printf "filter %.0f msgs/s, re-analysis %.0f msgs/s: %.0fx\n"
    filter_rate reanalysis_rate speedup;
  if speedup < 10. then
    Alcotest.failf "filter %.0f msgs/s is %.1fx re-analysis %.0f msgs/s (at least 10x)"
      filter_rate speedup reanalysis_rate

(* Random well-sorted op programs, serialized as ACHFLT01 images and loaded
   through [Filter.of_string], against a three-valued reference over [Bv]. *)
type kop =
  | Kbyte of int
  | Kconst of Bv.t
  | Kbool of bool
  | Kunknown
  | Knot of int
  | Kand of int * int
  | Kor of int * int
  | Kite of int * int * int
  | Keq of int * int
  | Kcmp of int * int * int (* 10 ult, 11 slt, 12 ule, 13 sle *)
  | Karith of int * int * int (* 14..18 and 20..25, as the image tags *)
  | Kbnot of int
  | Kconcat of int * int
  | Kextract of int * int * int
  | Kinset of int * (int64 * int64) array

let image_of ~size ops ~root =
  let buf = Buffer.create 1024 in
  let u8 n = Buffer.add_char buf (Char.chr (n land 0xff)) in
  let u32 n = Buffer.add_int32_be buf (Int32.of_int n) in
  let i64 n = Buffer.add_int64_be buf n in
  let str s =
    u8 (String.length s lsr 8);
    u8 (String.length s);
    Buffer.add_string buf s
  in
  str "kernel";
  str "bytes";
  u32 size;
  u32 (Array.fold_left (fun n o -> if o = Kunknown then n + 1 else n) 0 ops);
  u32 (Array.length ops);
  Array.iter
    (function
      | Kbyte k -> u8 0; u32 k
      | Kconst c -> u8 1; u8 (Bv.width c); i64 (Bv.value c)
      | Kbool b -> u8 (if b then 3 else 2)
      | Kunknown -> u8 4
      | Knot a -> u8 5; u32 a
      | Kand (a, b) -> u8 6; u32 a; u32 b
      | Kor (a, b) -> u8 7; u32 a; u32 b
      | Kite (c, a, b) -> u8 8; u32 c; u32 a; u32 b
      | Keq (a, b) -> u8 9; u32 a; u32 b
      | Kcmp (t, a, b) | Karith (t, a, b) -> u8 t; u32 a; u32 b
      | Kbnot a -> u8 19; u32 a
      | Kconcat (a, b) -> u8 26; u32 a; u32 b
      | Kextract (hi, lo, a) -> u8 27; u8 hi; u8 lo; u32 a
      | Kinset (a, ranges) ->
          u8 28; u32 a; u32 (Array.length ranges);
          Array.iter (fun (lo, hi) -> i64 lo; i64 hi) ranges)
    ops;
  u32 1;
  u32 7;
  str "root";
  u32 0;
  u32 root;
  Sealed.seal ~magic:"ACHFLT01" (Buffer.contents buf)

type rv = Rb of bool | Rv of Bv.t | Ru

let reference ops msg =
  let vals = Array.make (Array.length ops) Ru in
  let bv j = match vals.(j) with Rv x -> Some x | _ -> None in
  let lift f a b =
    match (bv a, bv b) with Some x, Some y -> f x y | _ -> Ru
  in
  Array.iteri
    (fun i o ->
      vals.(i) <-
        (match o with
        | Kbyte k -> Rv (Bv.of_int ~width:8 (Char.code (Bytes.get msg k)))
        | Kconst c -> Rv c
        | Kbool b -> Rb b
        | Kunknown -> Ru
        | Knot a -> ( match vals.(a) with Rb x -> Rb (not x) | _ -> Ru)
        | Kand (a, b) -> (
            match (vals.(a), vals.(b)) with
            | Rb false, _ | _, Rb false -> Rb false
            | Rb true, Rb true -> Rb true
            | _ -> Ru)
        | Kor (a, b) -> (
            match (vals.(a), vals.(b)) with
            | Rb true, _ | _, Rb true -> Rb true
            | Rb false, Rb false -> Rb false
            | _ -> Ru)
        | Kite (c, a, b) -> (
            match vals.(c) with Rb true -> vals.(a) | Rb false -> vals.(b) | _ -> Ru)
        | Keq (a, b) -> (
            match (vals.(a), vals.(b)) with
            | Rv x, Rv y -> Rb (Bv.equal x y)
            | Rb x, Rb y -> Rb (x = y)
            | _ -> Ru)
        | Kcmp (t, a, b) ->
            let f =
              match t with 10 -> Bv.ult | 11 -> Bv.slt | 12 -> Bv.ule | _ -> Bv.sle
            in
            lift (fun x y -> Rb (f x y)) a b
        | Karith (t, a, b) ->
            let f =
              match t with
              | 14 -> Bv.add | 15 -> Bv.sub | 16 -> Bv.mul | 17 -> Bv.udiv
              | 18 -> Bv.urem | 20 -> Bv.logand | 21 -> Bv.logor
              | 22 -> Bv.logxor | 23 -> Bv.shl | 24 -> Bv.lshr | _ -> Bv.ashr
            in
            lift (fun x y -> Rv (f x y)) a b
        | Kbnot a -> ( match bv a with Some x -> Rv (Bv.lognot x) | None -> Ru)
        | Kconcat (a, b) -> lift (fun x y -> Rv (Bv.concat x y)) a b
        | Kextract (hi, lo, a) -> (
            match bv a with Some x -> Rv (Bv.extract ~hi ~lo x) | None -> Ru)
        | Kinset (a, ranges) -> (
            match bv a with
            | None -> Ru
            | Some x ->
                let v = Bv.value x in
                Rb
                  (Array.exists
                     (fun (lo, hi) ->
                       Int64.unsigned_compare lo v <= 0
                       && Int64.unsigned_compare v hi <= 0)
                     ranges))))
    ops;
  vals

let kernel_widths = [| 1; 8; 32; 63; 64 |]

(* Values that sit on the edges the kernel must get right: 0 (division by
   zero), shift amounts around the width, the sign bit, all ones. *)
let edge_value rng w =
  let mask = if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L in
  let v =
    match Random.State.int rng 9 with
    | 0 -> 0L
    | 1 -> 1L
    | 2 -> Int64.of_int (w - 1)
    | 3 -> Int64.of_int w
    | 4 -> Int64.of_int (w + 1 + Random.State.int rng 70)
    | 5 -> Int64.shift_left 1L (w - 1)
    | 6 -> -1L
    | 7 -> Int64.lognot (Int64.shift_left 1L (w - 1))
    | _ -> Random.State.bits64 rng
  in
  Bv.make ~width:w (Int64.logand v mask)

(* A program: the message bytes, edge constants and message-dependent values
   of every kernel width, unknown and constant booleans, then [n] random
   ops over whatever has a fitting sort. *)
let random_program rng ~size ~n =
  let ops = ref [||] in
  let sorts = ref [||] in
  let push o sort =
    ops := Array.append !ops [| o |];
    sorts := Array.append !sorts [| sort |];
    Array.length !ops - 1
  in
  let bytes = Array.init size (fun k -> push (Kbyte k) 8) in
  let b0 = push (Kconcat (bytes.(0), bytes.(1))) 16 in
  let b1 = push (Kconcat (bytes.(2), bytes.(3))) 16 in
  let w32 = push (Kconcat (b0, b1)) 32 in
  let b2 = push (Kconcat (bytes.(4), bytes.(5))) 16 in
  let b3 = push (Kconcat (bytes.(6), bytes.(7))) 16 in
  let w64 = push (Kconcat (w32, push (Kconcat (b2, b3)) 32)) 64 in
  ignore (push (Kextract (62, 0, w64)) 63);
  ignore (push (Kextract (7, 7, bytes.(0))) 1);
  Array.iter
    (fun w ->
      for _ = 1 to 3 do
        let c = edge_value rng w in
        ignore (push (Kconst c) w)
      done)
    kernel_widths;
  ignore (push (Kbool true) 0);
  ignore (push (Kbool false) 0);
  ignore (push Kunknown 0);
  ignore (push Kunknown 0);
  let of_sort s =
    let acc = ref [] in
    Array.iteri (fun i s' -> if s' = s then acc := i :: !acc) !sorts;
    Array.of_list !acc
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let bv_width () =
    let ws = List.sort_uniq compare (List.filter (fun w -> w > 0) (Array.to_list !sorts)) in
    List.nth ws (Random.State.int rng (List.length ws))
  in
  for _ = 1 to n do
    match Random.State.int rng 16 with
    | 0 -> ignore (push (Knot (pick (of_sort 0))) 0)
    | 1 -> ignore (push (Kand (pick (of_sort 0), pick (of_sort 0))) 0)
    | 2 -> ignore (push (Kor (pick (of_sort 0), pick (of_sort 0))) 0)
    | 3 ->
        let s = if Random.State.bool rng then 0 else bv_width () in
        let xs = of_sort s in
        ignore (push (Kite (pick (of_sort 0), pick xs, pick xs)) s)
    | 4 ->
        let xs = of_sort (if Random.State.bool rng then 0 else bv_width ()) in
        ignore (push (Keq (pick xs, pick xs)) 0)
    | 5 ->
        let xs = of_sort (bv_width ()) in
        ignore (push (Kcmp (10 + Random.State.int rng 4, pick xs, pick xs)) 0)
    | 6 | 7 | 8 | 9 ->
        let w = bv_width () in
        let xs = of_sort w in
        let tags = [| 14; 15; 16; 17; 18; 20; 21; 22; 23; 24; 25 |] in
        ignore (push (Karith (pick tags, pick xs, pick xs)) w)
    | 10 ->
        let w = bv_width () in
        ignore (push (Kbnot (pick (of_sort w))) w)
    | 11 ->
        let wa = bv_width () in
        let fits = List.filter (fun w -> w > 0 && wa + w <= 64) (Array.to_list !sorts) in
        if fits <> [] then begin
          let wb = List.nth fits (Random.State.int rng (List.length fits)) in
          ignore (push (Kconcat (pick (of_sort wa), pick (of_sort wb))) (wa + wb))
        end
    | 12 ->
        let w = bv_width () in
        let lo = Random.State.int rng w in
        let hi = lo + Random.State.int rng (w - lo) in
        ignore (push (Kextract (hi, lo, pick (of_sort w))) (hi - lo + 1))
    | 13 ->
        let w = bv_width () in
        let ranges =
          Array.init (1 + Random.State.int rng 3) (fun _ ->
              let x = Bv.value (edge_value rng w) and y = Bv.value (edge_value rng w) in
              if Int64.unsigned_compare x y <= 0 then (x, y) else (y, x))
        in
        ignore (push (Kinset (pick (of_sort w), ranges)) 0)
    | 14 -> ignore (push (Kbyte (Random.State.int rng size)) 8)
    | _ ->
        let w = pick kernel_widths in
        ignore (push (Kconst (edge_value rng w)) w)
  done;
  (!ops, !sorts)

(* Observe op [i] through a one-state image: a boolean op is the root; a
   bitvector op is compared with the reference value (or with itself when
   the reference is unknown, which must stay unknown). *)
let observe ~size ops sorts msg i expected =
  let extra, want =
    match (sorts.(i), expected) with
    | 0, Rb b -> ([||], if b then 'T' else 'A')
    | 0, _ -> ([||], 'U')
    | _, Rv v -> ([| Kconst v |], 'T')
    | _, _ -> ([| Kconst (Bv.zero sorts.(i)) |], 'U')
  in
  let n = Array.length ops in
  let ops', root =
    if extra = [||] then (ops, i)
    else (Array.concat [ ops; extra; [| Keq (i, n) |] ], n + 1)
  in
  match Filter.of_string (image_of ~size ops' ~root) with
  | Error e -> Alcotest.failf "test image rejected: %s" e
  | Ok f ->
      let got =
        match Filter.verdict_bytes (Filter.evaluator f) msg with
        | Filter.Trojan_suspect _ -> 'T'
        | Filter.Accept -> 'A'
        | Filter.Unknown_state -> 'U'
      in
      (got, want)

let program_of_seed seed =
  let rng = Random.State.make [| seed |] in
  let size = 8 in
  let ops, sorts = random_program rng ~size ~n:40 in
  let msg =
    Bytes.init size (fun _ ->
        Char.chr
          (match Random.State.int rng 4 with
          | 0 -> 0
          | 1 -> 0xff
          | 2 -> 0x80
          | _ -> Random.State.int rng 256))
  in
  (ops, sorts, msg)

(* [None] when the kernel agrees with the reference on every op. *)
let kernel_mismatch seed =
  let ops, sorts, msg = program_of_seed seed in
  let expected = reference ops msg in
  let rec go i =
    if i >= Array.length ops then None
    else
      let got, want = observe ~size:(Bytes.length msg) ops sorts msg i expected.(i) in
      if got <> want then
        Some (Printf.sprintf "op %d: kernel says %c, reference %c" i got want)
      else go (i + 1)
  in
  go 0

let kernel_differential =
  QCheck2.Test.make ~name:"kernel == Bv reference on random programs"
    ~count:300 ~print:string_of_int QCheck2.Gen.int (fun seed ->
      match kernel_mismatch seed with
      | None -> true
      | Some m -> QCheck2.Test.fail_reportf "%s" m)

(* Seeds 0-299: the kernel agrees with the reference, and between them the
   programs reach every op kind, width and edge the property is meant to
   cover. *)
let test_kernel_coverage () =
  let seen = Hashtbl.create 64 in
  let note k = Hashtbl.replace seen k () in
  for seed = 0 to 299 do
    (match kernel_mismatch seed with
    | None -> ()
    | Some m -> Alcotest.failf "seed %d: %s" seed m);
    let ops, sorts, msg = program_of_seed seed in
    let vals = reference ops msg in
    let value j = match vals.(j) with Rv x -> Some x | _ -> None in
    Array.iteri
      (fun i o ->
        match o with
        | Knot _ -> note "not"
        | Kand (a, b) | Kor (a, b) ->
            note (match o with Kand _ -> "and" | _ -> "or");
            if vals.(a) = Ru || vals.(b) = Ru then note "unknown through and/or"
        | Kite (c, _, _) ->
            note "ite";
            if vals.(c) = Ru then note "unknown through ite"
        | Keq (a, _) ->
            note "eq";
            if vals.(a) = Ru then note "unknown through eq"
        | Kcmp (t, a, _) -> (
            note (Printf.sprintf "cmp %d" t);
            match value a with
            | Some x when (t = 11 || t = 13) && Bv.bit x (Bv.width x - 1) ->
                note "signed compare of a negative"
            | _ -> ())
        | Karith (t, a, b) -> (
            note (Printf.sprintf "arith %d" t);
            note (Printf.sprintf "width %d" sorts.(i));
            match (value a, value b) with
            | Some x, Some y ->
                let w = Bv.width y in
                if (t = 17 || t = 18) && Bv.value y = 0L then note "division by zero";
                if t >= 23 && Int64.unsigned_compare (Bv.value y) (Int64.of_int w) >= 0
                then note "shift by at least the width";
                if t = 25 && Bv.bit x (w - 1) then note "ashr of a negative"
            | _ -> ())
        | Kbnot _ -> note "bnot"
        | Kconcat _ -> note "concat"
        | Kextract _ -> note "extract"
        | Kinset _ -> note "inset"
        | Kbyte _ | Kconst _ | Kbool _ | Kunknown -> ())
      ops
  done;
  let wanted =
    [ "not"; "and"; "or"; "ite"; "eq"; "bnot"; "concat"; "extract"; "inset";
      "unknown through and/or"; "unknown through ite"; "unknown through eq";
      "signed compare of a negative"; "division by zero";
      "shift by at least the width"; "ashr of a negative" ]
    @ List.map (Printf.sprintf "cmp %d") [ 10; 11; 12; 13 ]
    @ List.map (Printf.sprintf "arith %d") [ 14; 15; 16; 17; 18; 20; 21; 22; 23; 24; 25 ]
    @ List.map (Printf.sprintf "width %d") (Array.to_list kernel_widths)
  in
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then Alcotest.failf "programs never reach: %s" k)
    wanted

(* --- serialization: round trip and corruption guards -------------------------- *)

let fsp_image = lazy (let _, _, filter = force "fsp" in Filter.to_string filter)

let test_round_trip () =
  List.iter
    (fun (name, _) ->
      let _, report, filter = force name in
      let image = Filter.to_string filter in
      match Filter.of_string image with
      | Error e -> Alcotest.failf "%s: round trip failed: %s" name e
      | Ok filter' ->
          (* canonical encoding: decode then re-encode is the identity *)
          Alcotest.(check bool)
            (Printf.sprintf "%s: image identical" name)
            true
            (String.equal image (Filter.to_string filter'));
          (* and the decoded filter behaves identically on live traffic *)
          let ev = Filter.evaluator filter and ev' = Filter.evaluator filter' in
          List.iter
            (fun (t : Search.trojan) ->
              Alcotest.(check bool) "same verdict" true
                (Filter.verdict ev t.Search.witness
                = Filter.verdict ev' t.Search.witness))
            report.Search.trojans)
    compiled

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s was accepted" what

let test_corruption_guards () =
  let image = Lazy.force fsp_image in
  let len = String.length image in
  (* torn writes: every truncation point is rejected *)
  expect_error "empty file" (Filter.of_string "");
  expect_error "half image" (Filter.of_string (String.sub image 0 (len / 2)));
  expect_error "missing last byte"
    (Filter.of_string (String.sub image 0 (len - 1)));
  expect_error "only the header" (Filter.of_string (String.sub image 0 12));
  (* foreign files *)
  expect_error "garbage" (Filter.of_string "not a filter at all");
  expect_error "trailing garbage" (Filter.of_string (image ^ "x"));
  (* a future format version is refused rather than misparsed *)
  let bumped = Bytes.of_string image in
  Bytes.set bumped 7 '2';
  expect_error "future version" (Filter.of_string (Bytes.to_string bumped));
  (* a well-formed envelope around a nonsense payload fails validation *)
  let payload = String.init 64 (fun i -> Char.chr (i * 7 mod 256)) in
  let buf = Buffer.create 128 in
  Buffer.add_string buf "ACHFLT01";
  Buffer.add_int32_be buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.add_string buf (Digest.string payload);
  expect_error "valid envelope, junk payload"
    (Filter.of_string (Buffer.contents buf))

(* Any single bit flip anywhere in a sealed image — magic, lengths,
   payload, or the digest itself — must be refused by that image's own
   reader, never decoded into something that behaves differently. One
   property over the three formats that share the frame. *)
let qcheck_bit_flips_rejected ~name image rejected =
  QCheck2.Test.make ~name ~count:500
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 7))
    (fun (p, bit) ->
      let image = Lazy.force image in
      let pos = p mod String.length image in
      let flipped = Bytes.of_string image in
      Bytes.set flipped pos
        (Char.chr (Char.code image.[pos] lxor (1 lsl bit)));
      rejected (Bytes.to_string flipped)
      || QCheck2.Test.fail_reportf "flip at byte %d bit %d accepted" pos bit)

let ckpt_file =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "achilles-filter-flip-%d.ckpt" (Unix.getpid ()))

let ckpt_fingerprint = "bit-flip-fingerprint"

let load_ckpt image =
  Out_channel.with_open_bin ckpt_file (fun oc -> Out_channel.output_string oc image);
  Search.Shards.load ~file:ckpt_file ~fingerprint:ckpt_fingerprint ~idx:0

(* One explored shard of the paper's working example, checkpointed. *)
let ckpt_image =
  lazy
    (Solver.reset_all_for_tests ();
     Term.reset_fresh_counter ();
     let client, _ =
       Client_extract.extract ~layout:Rw_example.layout [ Rw_example.client ]
     in
     let base = Term.fresh_counter_value () in
     let config = { Search.default_config with Search.domains = 2 } in
     let bits = Search.Shards.split_bits config in
     match
       Search.Shards.explore ~config ~different_from:None ~client
         ~server:Rw_example.server ~bits ~base ~started:(Unix.gettimeofday ()) 0
     with
     | None, _ -> Alcotest.fail "shard exploration was cancelled?"
     | Some out, _ ->
         at_exit (fun () -> try Sys.remove ckpt_file with Sys_error _ -> ());
         Search.Shards.write ~file:ckpt_file ~fingerprint:ckpt_fingerprint
           ~idx:0 out;
         let image = In_channel.with_open_bin ckpt_file In_channel.input_all in
         if load_ckpt image = None then
           Alcotest.fail "pristine checkpoint does not load";
         image)

let manifest_image =
  lazy
    (Achilles_dist.Lease.seal_manifest
       (Marshal.to_string ("rw", Some "request", 4, 0.5, "0123456789ab") []))

let bit_flip_properties =
  [
    qcheck_bit_flips_rejected ~name:"any single bit flip in the image is rejected"
      fsp_image (fun s -> Result.is_error (Filter.of_string s));
    qcheck_bit_flips_rejected
      ~name:"any single bit flip in a shard checkpoint is rejected" ckpt_image
      (fun s -> load_ckpt s = None);
    qcheck_bit_flips_rejected
      ~name:"any single bit flip in a sealed manifest is rejected"
      manifest_image
      (fun s -> Result.is_error (Achilles_dist.Lease.unseal_manifest s));
  ]

let test_save_load () =
  let _, _, filter = force "gossip" in
  let file = Filename.temp_file "achilles-filter" ".achfilter" in
  (match Filter.save filter ~file with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e);
  (match Filter.load ~file with
  | Ok filter' ->
      Alcotest.(check string) "round trip through disk"
        (Filter.to_string filter) (Filter.to_string filter')
  | Error e -> Alcotest.failf "load: %s" e);
  Sys.remove file;
  (match Filter.load ~file with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file succeeded")

(* --- the daemon: in-process protocol check ------------------------------------ *)

let temp_socket_path () =
  let file = Filename.temp_file "achilles-serve" ".sock" in
  Sys.remove file;
  file

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.sleepf 0.02;
        go (tries - 1)
  in
  go 250

let read_exactly fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> Alcotest.fail "daemon closed the connection mid-reply"
      | k -> go (off + k)
  in
  go 0

let frame_of payload =
  let frame = Bytes.create (4 + Bytes.length payload) in
  Bytes.set_int32_be frame 0 (Int32.of_int (Bytes.length payload));
  Bytes.blit payload 0 frame 4 (Bytes.length payload);
  frame

let send_message fd payload =
  let frame = frame_of payload in
  let n = Unix.write fd frame 0 (Bytes.length frame) in
  Alcotest.(check int) "frame fully written" (Bytes.length frame) n;
  let reply = read_exactly fd 5 in
  let state = Int32.to_int (Bytes.get_int32_be reply 1) land 0xFFFFFFFF in
  (Bytes.get reply 0, state)

let bytes_of_witness w =
  Bytes.init (Array.length w) (fun i -> Char.chr (Bv.to_int w.(i)))

let test_daemon_in_process () =
  let _, report, filter = force "gossip" in
  let ev = Filter.evaluator filter in
  let sock = temp_socket_path () in
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run ~filter ~address:(Daemon.Unix_socket sock)
          ~stop:(fun () -> Atomic.get stop)
          ())
  in
  Fun.protect ~finally:(fun () -> Atomic.set stop true)
  @@ fun () ->
  let fd = connect_unix sock in
  (* every confirmed witness comes back 'T' with the id the filter gives *)
  let confirmed =
    List.filter (fun (t : Search.trojan) -> t.Search.confirmed)
      report.Search.trojans
  in
  Alcotest.(check bool) "have witnesses to send" true (confirmed <> []);
  List.iter
    (fun (t : Search.trojan) ->
      let expected =
        match Filter.verdict ev t.Search.witness with
        | Filter.Trojan_suspect id -> id
        | v -> Alcotest.failf "witness not flagged in-process: %s" (pp_verdict v)
      in
      let c, state = send_message fd (bytes_of_witness t.Search.witness) in
      Alcotest.(check char) "verdict char" 'T' c;
      Alcotest.(check int) "state id" expected state)
    confirmed;
  (* a benign message answers 'A', a wrong-length one 'U' *)
  let benign = Bytes.make (Filter.message_size filter) '\255' in
  (match Filter.verdict_bytes ev (Bytes.copy benign) with
  | Filter.Accept -> ()
  | v -> Alcotest.failf "expected all-ff gossip message benign, got %s" (pp_verdict v));
  let c, _ = send_message fd benign in
  Alcotest.(check char) "benign verdict" 'A' c;
  let c, _ = send_message fd (Bytes.make 2 '\000') in
  Alcotest.(check char) "wrong length" 'U' c;
  (* pipelining: two frames in one write produce two replies in order *)
  let w = bytes_of_witness (List.hd confirmed).Search.witness in
  let both = Bytes.concat Bytes.empty [ frame_of w; frame_of benign ] in
  let n = Unix.write fd both 0 (Bytes.length both) in
  Alcotest.(check int) "both frames written" (Bytes.length both) n;
  let r1 = read_exactly fd 5 in
  let r2 = read_exactly fd 5 in
  Alcotest.(check char) "pipelined first" 'T' (Bytes.get r1 0);
  Alcotest.(check char) "pipelined second" 'A' (Bytes.get r2 0);
  (* a frame split across writes is reassembled *)
  let frame = frame_of w in
  let half = Bytes.length frame / 2 in
  ignore (Unix.write fd frame 0 half);
  Unix.sleepf 0.05;
  ignore (Unix.write fd frame half (Bytes.length frame - half));
  let r3 = read_exactly fd 5 in
  Alcotest.(check char) "split frame" 'T' (Bytes.get r3 0);
  Unix.close fd;
  Atomic.set stop true;
  let stats = Domain.join daemon in
  Alcotest.(check int) "daemon counted every message"
    (List.length confirmed + 5)
    stats.Daemon.messages;
  Alcotest.(check int) "one connection" 1 stats.Daemon.connections;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock)

(* --- the daemon's telemetry surfaces: STATS wire command and /metrics ---------- *)

let stats_over fd =
  let req = Bytes.create 4 in
  Bytes.set_int32_be req 0 0xFFFFFFFFl;
  let n = Unix.write fd req 0 4 in
  Alcotest.(check int) "sentinel fully written" 4 n;
  let len = Int32.to_int (Bytes.get_int32_be (read_exactly fd 4) 0) land 0xFFFFFFFF in
  Bytes.to_string (read_exactly fd len)

let kv_of text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ k; v ] -> Some (k, v)
      | _ -> None)
    (String.split_on_char '\n' text)

let stat_int kv key =
  match List.assoc_opt key kv with
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> Alcotest.failf "stats key %s is not an int: %s" key v)
  | None -> Alcotest.failf "stats reply lacks key %s" key

let stat_float kv key =
  match Option.bind (List.assoc_opt key kv) float_of_string_opt with
  | Some f -> f
  | None -> Alcotest.failf "stats reply lacks float key %s" key

let read_to_eof fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents buf

let scrape msock =
  let fd = connect_unix msock in
  let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
  ignore (Unix.write fd req 0 (Bytes.length req));
  let reply = read_to_eof fd in
  Unix.close fd;
  match String.index_opt reply '\n' with
  | None -> Alcotest.fail "scrape reply has no status line"
  | Some _ -> (
      let status = List.hd (String.split_on_char '\n' reply) in
      Alcotest.(check string) "scrape status line" "HTTP/1.0 200 OK"
        (String.trim status);
      let marker = "\r\n\r\n" in
      let ml = String.length marker and rl = String.length reply in
      let rec find i =
        if i + ml > rl then None
        else if String.sub reply i ml = marker then Some (i + ml)
        else find (i + 1)
      in
      match find 0 with
      | None -> Alcotest.fail "scrape reply has no header/body separator"
      | Some body_at -> (reply, String.sub reply body_at (rl - body_at)))

(* Value of an exposition sample whose full series name (labels included)
   is [series]. *)
let metric_sample body series =
  let prefix = series ^ " " in
  let pl = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l > pl && String.sub l 0 pl = prefix)
      (String.split_on_char '\n' body)
  with
  | Some l -> (
      match float_of_string_opt (String.sub l pl (String.length l - pl)) with
      | Some f -> f
      | None -> Alcotest.failf "unparseable sample: %s" l)
  | None -> Alcotest.failf "exposition lacks series %s" series

let check_exposition_shape body =
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
            match
              float_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
            with
            | Some _ -> ()
            | None -> Alcotest.failf "unparseable sample value: %s" line)
        | None -> Alcotest.failf "sample line without value: %s" line)
    (List.filter (fun l -> l <> "") (String.split_on_char '\n' body))

let test_daemon_telemetry () =
  let _, report, filter = force "gossip" in
  let sock = temp_socket_path () in
  let msock = temp_socket_path () in
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run ~filter
          ~metrics:(Daemon.Unix_socket msock)
          ~address:(Daemon.Unix_socket sock)
          ~stop:(fun () -> Atomic.get stop)
          ())
  in
  Fun.protect ~finally:(fun () -> Atomic.set stop true)
  @@ fun () ->
  let witness =
    match
      List.find_opt (fun (t : Search.trojan) -> t.Search.confirmed)
        report.Search.trojans
    with
    | Some t -> bytes_of_witness t.Search.witness
    | None -> Alcotest.fail "gossip analysis reported no confirmed trojan"
  in
  let benign = Bytes.make (Filter.message_size filter) '\255' in
  let fd = connect_unix sock in
  let c, _ = send_message fd witness in
  Alcotest.(check char) "witness flagged" 'T' c;
  let c, _ = send_message fd benign in
  Alcotest.(check char) "benign accepted" 'A' c;
  let c, _ = send_message fd (Bytes.make 2 '\000') in
  Alcotest.(check char) "short is unknown" 'U' c;
  (* STATS sentinel mid-stream: a key/value reply, then normal service *)
  let kv = kv_of (stats_over fd) in
  Alcotest.(check int) "wire stats: messages" 3 (stat_int kv "messages");
  Alcotest.(check int) "wire stats: accepts" 1 (stat_int kv "accepts");
  Alcotest.(check int) "wire stats: trojan_suspects" 1
    (stat_int kv "trojan_suspects");
  Alcotest.(check int) "wire stats: unknowns" 1 (stat_int kv "unknowns");
  Alcotest.(check int) "wire stats: dropped_frames" 0
    (stat_int kv "dropped_frames");
  Alcotest.(check int) "wire stats: connections" 1 (stat_int kv "connections");
  Alcotest.(check int) "wire stats: latency_count" 3
    (stat_int kv "latency_count");
  Alcotest.(check bool) "wire stats: uptime non-negative" true
    (stat_float kv "uptime_seconds" >= 0.);
  Alcotest.(check bool) "wire stats: p50 <= p99" true
    (stat_float kv "latency_p50_us" <= stat_float kv "latency_p99_us");
  let c, _ = send_message fd benign in
  Alcotest.(check char) "daemon keeps serving after STATS" 'A' c;
  (* scrape while the verdict connection is still open: the exposition must
     agree with the wire stats *)
  let _, body = scrape msock in
  check_exposition_shape body;
  Alcotest.(check (float 0.)) "scrape: messages" 4.
    (metric_sample body "achilles_daemon_messages_total");
  Alcotest.(check (float 0.)) "scrape: accepts" 2.
    (metric_sample body "achilles_daemon_verdicts_total{verdict=\"accept\"}");
  Alcotest.(check (float 0.)) "scrape: trojan suspects" 1.
    (metric_sample body
       "achilles_daemon_verdicts_total{verdict=\"trojan_suspect\"}");
  Alcotest.(check (float 0.)) "scrape: unknowns" 1.
    (metric_sample body "achilles_daemon_verdicts_total{verdict=\"unknown\"}");
  Alcotest.(check (float 0.)) "scrape: dropped frames" 0.
    (metric_sample body "achilles_daemon_dropped_frames_total");
  Alcotest.(check (float 0.)) "scrape: latency count covers live conns" 4.
    (metric_sample body "achilles_daemon_request_duration_seconds_count");
  Alcotest.(check (float 0.)) "scrape: +Inf bucket equals count" 4.
    (metric_sample body
       "achilles_daemon_request_duration_seconds_bucket{le=\"+Inf\"}");
  Alcotest.(check bool) "scrape: uptime gauge present" true
    (metric_sample body "achilles_daemon_uptime_seconds" >= 0.);
  (* an oversized frame drops that connection and counts as a drop *)
  let fd2 = connect_unix sock in
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 (Int32.of_int (2 * 1024 * 1024));
  ignore (Unix.write fd2 huge 0 4);
  let eof =
    match Unix.read fd2 (Bytes.create 1) 0 1 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  in
  Alcotest.(check bool) "oversized frame drops the connection" true eof;
  Unix.close fd2;
  (* the drop shows up on both surfaces; the first connection still serves *)
  let kv = kv_of (stats_over fd) in
  Alcotest.(check int) "wire stats: drop counted" 1
    (stat_int kv "dropped_frames");
  Alcotest.(check int) "wire stats: two connections" 2
    (stat_int kv "connections");
  let _, body = scrape msock in
  Alcotest.(check (float 0.)) "scrape: drop counted" 1.
    (metric_sample body "achilles_daemon_dropped_frames_total");
  Unix.close fd;
  Atomic.set stop true;
  let stats = Domain.join daemon in
  (* the returned record, the wire reply, and the scrape all told the same
     story *)
  Alcotest.(check int) "record: messages" 4 stats.Daemon.messages;
  Alcotest.(check int) "record: accepts" 2 stats.Daemon.accepts;
  Alcotest.(check int) "record: trojan suspects" 1 stats.Daemon.trojan_suspects;
  Alcotest.(check int) "record: unknowns" 1 stats.Daemon.unknowns;
  Alcotest.(check int) "record: dropped frames" 1 stats.Daemon.dropped_frames;
  Alcotest.(check int) "record: connections" 2 stats.Daemon.connections;
  Alcotest.(check bool) "metrics socket file removed" false
    (Sys.file_exists msock)

(* The select loop interleaves scrapes with verdict traffic: start a scrape,
   keep sending frames on the verdict connection, then harvest the scrape —
   all on one daemon thread. Every scrape must be well-formed and counters
   must be monotone across scrapes. *)
let test_scrape_while_serving () =
  let _, _, filter = force "gossip" in
  let sock = temp_socket_path () in
  let msock = temp_socket_path () in
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run ~filter
          ~metrics:(Daemon.Unix_socket msock)
          ~address:(Daemon.Unix_socket sock)
          ~stop:(fun () -> Atomic.get stop)
          ())
  in
  Fun.protect ~finally:(fun () -> Atomic.set stop true)
  @@ fun () ->
  let benign = Bytes.make (Filter.message_size filter) '\255' in
  let fd = connect_unix sock in
  let sent = ref 0 in
  let last = ref 0. in
  for _round = 1 to 5 do
    (* open the scrape first, then drive traffic before harvesting it *)
    let sfd = connect_unix msock in
    let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
    ignore (Unix.write sfd req 0 (Bytes.length req));
    for _ = 1 to 20 do
      let c, _ = send_message fd benign in
      incr sent;
      Alcotest.(check char) "verdict under scrape load" 'A' c
    done;
    let reply = read_to_eof sfd in
    Unix.close sfd;
    let marker = "\r\n\r\n" in
    let ml = String.length marker and rl = String.length reply in
    let rec find i =
      if i + ml > rl then None
      else if String.sub reply i ml = marker then Some (i + ml)
      else find (i + 1)
    in
    match find 0 with
    | None -> Alcotest.fail "interleaved scrape has no body"
    | Some at ->
        let body = String.sub reply at (rl - at) in
        check_exposition_shape body;
        let m = metric_sample body "achilles_daemon_messages_total" in
        Alcotest.(check bool) "scrape counter is monotone" true (m >= !last);
        Alcotest.(check bool) "scrape counter within bounds" true
          (m <= float_of_int !sent);
        last := m
  done;
  Unix.close fd;
  Atomic.set stop true;
  let stats = Domain.join daemon in
  Alcotest.(check int) "every frame judged" !sent stats.Daemon.messages

(* --- the daemon: reply order within one wakeup --------------------------------- *)

(* An in-process daemon on a fresh socket; [finish] stops it and returns its
   statistics. *)
let spawn_daemon filter =
  let sock = temp_socket_path () in
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Daemon.run ~filter ~address:(Daemon.Unix_socket sock)
          ~stop:(fun () -> Atomic.get stop)
          ())
  in
  let finish () =
    Atomic.set stop true;
    Domain.join daemon
  in
  (sock, finish)

let write_whole fd bytes =
  let n = Unix.write fd bytes 0 (Bytes.length bytes) in
  Alcotest.(check int) "one write took every byte" (Bytes.length bytes) n

let stats_request () =
  let req = Bytes.create 4 in
  Bytes.set_int32_be req 0 0xFFFFFFFFl;
  req

(* Expected 5-byte reply of the in-process evaluator. *)
let expected_reply ev payload =
  match Filter.verdict_bytes ev payload with
  | Filter.Accept -> ('A', 0xFFFFFFFF)
  | Filter.Trojan_suspect id -> ('T', id)
  | Filter.Unknown_state -> ('U', 0xFFFFFFFF)

let check_replies what ev payloads replies =
  List.iteri
    (fun k payload ->
      let c, state = expected_reply ev payload in
      let got_c = Bytes.get replies (5 * k) in
      let got_state =
        Int32.to_int (Bytes.get_int32_be replies ((5 * k) + 1)) land 0xFFFFFFFF
      in
      if got_c <> c || got_state <> state then
        Alcotest.failf "%s: reply %d is %c %d, want %c %d" what k got_c
          got_state c state)
    payloads

let gossip_traffic () =
  let _, report, filter = force "gossip" in
  let witness =
    match
      List.find_opt (fun (t : Search.trojan) -> t.Search.confirmed)
        report.Search.trojans
    with
    | Some t -> bytes_of_witness t.Search.witness
    | None -> Alcotest.fail "gossip analysis reported no confirmed trojan"
  in
  let benign = Bytes.make (Filter.message_size filter) '\255' in
  (filter, witness, benign, Bytes.make 2 '\000')

(* Frames, STATS, frames in one write: the replies keep that order and the
   STATS reply counts only the frames before it. *)
let test_stats_in_order () =
  let filter, witness, benign, short = gossip_traffic () in
  let ev = Filter.evaluator filter in
  let sock, finish = spawn_daemon filter in
  let fd = connect_unix sock in
  let before = [ witness; benign; short ] and after = [ benign; witness ] in
  let frames l = List.map frame_of l in
  write_whole fd
    (Bytes.concat Bytes.empty (frames before @ [ stats_request () ] @ frames after));
  check_replies "before STATS" ev before (read_exactly fd 15);
  let len = Int32.to_int (Bytes.get_int32_be (read_exactly fd 4) 0) in
  let kv = kv_of (Bytes.to_string (read_exactly fd len)) in
  Alcotest.(check int) "STATS counts the frames before it" 3 (stat_int kv "messages");
  Alcotest.(check int) "STATS accepts" 1 (stat_int kv "accepts");
  Alcotest.(check int) "STATS trojan suspects" 1 (stat_int kv "trojan_suspects");
  Alcotest.(check int) "STATS unknowns" 1 (stat_int kv "unknowns");
  check_replies "after STATS" ev after (read_exactly fd 10);
  Unix.close fd;
  let stats = finish () in
  Alcotest.(check int) "every frame judged" 5 stats.Daemon.messages

(* Valid frames, then an oversized length word, in one write: every verdict
   arrives before the connection drops. *)
let test_verdicts_before_drop () =
  let filter, witness, benign, short = gossip_traffic () in
  let ev = Filter.evaluator filter in
  let sock, finish = spawn_daemon filter in
  let fd = connect_unix sock in
  let payloads = [ benign; witness; short; witness ] in
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 (Int32.of_int (2 * 1024 * 1024));
  write_whole fd (Bytes.concat Bytes.empty (List.map frame_of payloads @ [ huge ]));
  check_replies "before the drop" ev payloads (read_exactly fd 20);
  let eof =
    match Unix.read fd (Bytes.create 1) 0 1 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  in
  Alcotest.(check bool) "then the connection drops" true eof;
  Unix.close fd;
  let stats = finish () in
  Alcotest.(check int) "verdicts counted" 4 stats.Daemon.messages;
  Alcotest.(check int) "drop counted" 1 stats.Daemon.dropped_frames

(* 3,000 pipelined frames in one write, more than the daemon's initial read
   buffer holds: every reply is correct and in order. *)
let test_burst_beyond_buffer () =
  let filter, witness, benign, short = gossip_traffic () in
  let ev = Filter.evaluator filter in
  let sock, finish = spawn_daemon filter in
  let fd = connect_unix sock in
  let rng = Random.State.make [| 3000 |] in
  let payloads =
    List.init 3000 (fun i ->
        match i mod 4 with
        | 0 -> witness
        | 1 -> benign
        | 2 -> short
        | _ -> Bytes.init (Bytes.length benign) (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  let burst = Bytes.concat Bytes.empty (List.map frame_of payloads) in
  Alcotest.(check bool) "burst exceeds the 16 KiB initial read buffer" true
    (Bytes.length burst > 16384);
  write_whole fd burst;
  check_replies "burst" ev payloads (read_exactly fd (5 * 3000));
  Unix.close fd;
  let stats = finish () in
  Alcotest.(check int) "every frame judged" 3000 stats.Daemon.messages

(* A 100 KB frame of the wrong length, then a normal one: the read buffer
   grows to hold it, the reply is 'U', and service goes on after it. *)
let test_large_wrong_length () =
  let filter, _, benign, _ = gossip_traffic () in
  let sock, finish = spawn_daemon filter in
  let fd = connect_unix sock in
  let large = Bytes.make 100_000 '\007' in
  write_whole fd (Bytes.concat Bytes.empty [ frame_of large; frame_of benign ]);
  let replies = read_exactly fd 10 in
  Alcotest.(check char) "large frame is unknown" 'U' (Bytes.get replies 0);
  Alcotest.(check char) "the next frame is judged" 'A' (Bytes.get replies 5);
  Unix.close fd;
  let stats = finish () in
  Alcotest.(check int) "both judged" 2 stats.Daemon.messages;
  Alcotest.(check int) "no drop" 0 stats.Daemon.dropped_frames

(* --- the daemon as a real subprocess (achilles serve round trip) -------------- *)

let cli_binary () =
  let candidate =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/achilles_cli.exe"
  in
  if Sys.file_exists candidate then Some candidate else None

let test_serve_subprocess () =
  match cli_binary () with
  | None -> print_endline "achilles_cli.exe not built here; skipping"
  | Some binary ->
      let _, report, filter = force "gossip" in
      let file = Filename.temp_file "achilles-filter" ".achfilter" in
      (match Filter.save filter ~file with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      let sock = temp_socket_path () in
      let out = Filename.temp_file "achilles-serve" ".out" in
      let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      let pid =
        Unix.create_process binary
          [| binary; "serve"; file; "--socket"; sock |]
          Unix.stdin out_fd Unix.stderr
      in
      Unix.close out_fd;
      Fun.protect ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          List.iter
            (fun f -> try Sys.remove f with Sys_error _ -> ())
            [ file; out; sock ])
      @@ fun () ->
      let fd = connect_unix sock in
      let witness =
        match
          List.find_opt (fun (t : Search.trojan) -> t.Search.confirmed)
            report.Search.trojans
        with
        | Some t -> t
        | None -> Alcotest.fail "gossip analysis reported no confirmed trojan"
      in
      let c, _ = send_message fd (bytes_of_witness witness.Search.witness) in
      Alcotest.(check char) "subprocess flags the witness" 'T' c;
      let benign = Bytes.make (Filter.message_size filter) '\255' in
      let c, _ = send_message fd benign in
      Alcotest.(check char) "subprocess accepts benign" 'A' c;
      Unix.close fd;
      (* clean SIGTERM drain: exit 0 and final statistics on stdout *)
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "clean exit on SIGTERM" true
        (status = Unix.WEXITED 0);
      let ic = open_in out in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "announced readiness" true
        (String.length content >= 5
        && List.exists
             (fun line -> String.trim line = "ready")
             (String.split_on_char '\n' content));
      Alcotest.(check bool) "printed drain statistics" true
        (List.exists
           (fun line ->
             let line = String.trim line in
             String.length line > 0
             && String.index_opt line ',' <> None
             && List.exists
                  (fun needle ->
                    let nl = String.length needle and ll = String.length line in
                    let rec find i =
                      i + nl <= ll
                      && (String.sub line i nl = needle || find (i + 1))
                    in
                    find 0)
                  [ "trojan-suspect" ])
           (String.split_on_char '\n' content))

let () =
  let qsuite name tests =
    (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)
  in
  Alcotest.run "filter"
    [
      qsuite "differential"
        (List.map (fun (name, _) -> differential_test name) compiled);
      ( "compilation",
        [
          Alcotest.test_case "witnesses flagged" `Quick test_witnesses_flagged;
          Alcotest.test_case "exact (no unknown leaves)" `Quick
            test_exact_compilation;
          Alcotest.test_case "wrong length is unknown" `Quick
            test_wrong_length_is_unknown;
          Alcotest.test_case "pinned images" `Quick test_pinned_images;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "corruption guards" `Quick test_corruption_guards;
          Alcotest.test_case "save/load" `Quick test_save_load;
        ] );
      qsuite "serialization-properties" bit_flip_properties;
      ( "daemon",
        [
          Alcotest.test_case "in-process protocol" `Quick test_daemon_in_process;
          Alcotest.test_case "telemetry surfaces agree" `Quick
            test_daemon_telemetry;
          Alcotest.test_case "scrape while serving" `Quick
            test_scrape_while_serving;
          Alcotest.test_case "serve subprocess round trip" `Quick
            test_serve_subprocess;
          Alcotest.test_case "STATS keeps frame order" `Quick test_stats_in_order;
          Alcotest.test_case "verdicts sent before a drop" `Quick
            test_verdicts_before_drop;
          Alcotest.test_case "burst beyond the read buffer" `Quick
            test_burst_beyond_buffer;
          Alcotest.test_case "large wrong-length frame" `Quick
            test_large_wrong_length;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "allocation-free verdicts" `Quick
            test_allocation_free;
          Alcotest.test_case "kernel coverage" `Quick test_kernel_coverage;
          Alcotest.test_case "10x faster than re-analysis" `Quick
            test_faster_than_reanalysis;
        ] );
      qsuite "kernel" [ kernel_differential ];
    ]
