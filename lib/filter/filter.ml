(* Compile per-state Trojan queries into a decision DAG over message bytes.

   The compiler's job is existential-variable elimination: a Trojan query
   mentions the server's symbolic message bytes plus auxiliary variables
   (the negate operator's fresh-renamed client inputs, over-approximated
   server local state), and the solver decides it existentially. The filter
   must answer the same question from concrete bytes alone, so every
   auxiliary variable is resolved at compile time:

   - one-point rule: an [x = e] conjunct with [x] auxiliary and [x] not in
     [e] substitutes [e] for [x] (the negate operator's [field = renamed
     expression] equations unify this way with the server's byte terms);
   - equations between concatenations split segment-wise when the segment
     widths align, surfacing per-byte one-point opportunities;
   - atom-level QE: when an auxiliary variable's occurrences are confined
     to one atom (or negated atom), [∃x. atom] rewrites to an aux-free
     residual (e.g. [∃l. rid <> l] over a w-bit [l] is simply true);
   - leftovers are projected onto their message bytes by solver model
     enumeration (bounded), collapsed to unsigned ranges;
   - closed leftovers (no message bytes) are decided by one solver call.

   What survives all of that becomes a three-valued Unknown leaf: the
   filter reports Unknown_state rather than guessing. *)

open Achilles_smt
open Achilles_symvm
open Achilles_core
module T = Term
module Obs = Achilles_obs.Obs

(* --- IR -------------------------------------------------------------------- *)

type op =
  | Obyte of int (* message byte, 8-bit value *)
  | Oconst of Bv.t
  | Obool of bool
  | Ounknown (* three-valued bottom: verdict depends on untracked state *)
  | Onot of int
  | Oand of int * int
  | Oor of int * int
  | Oite of int * int * int
  | Oeq of int * int
  | Oult of int * int
  | Oslt of int * int
  | Oule of int * int
  | Osle of int * int
  | Oadd of int * int
  | Osub of int * int
  | Omul of int * int
  | Oudiv of int * int
  | Ourem of int * int
  | Obnot of int
  | Oband of int * int
  | Obor of int * int
  | Obxor of int * int
  | Oshl of int * int
  | Olshr of int * int
  | Oashr of int * int
  | Oconcat of int * int (* first operand holds the high bits *)
  | Oextract of int * int * int (* hi, lo, operand *)
  | Oinset of int * (int64 * int64) array
      (* unsigned membership of the operand in a union of inclusive ranges *)

type gate = { g_byte : int; g_lo : int; g_hi : int } (* inclusive bounds *)

type state_filter = {
  st_id : int;
  st_label : string;
  st_gates : gate array;
  st_root : int; (* boolean op index: the state's Trojan query *)
  st_ops : int array; (* ops reachable from the root, ascending *)
}

type t = {
  f_target : string;
  f_layout : string;
  f_message_size : int;
  f_unknowns : int;
  f_ops : op array;
  f_states : state_filter array;
}

type verdict = Accept | Trojan_suspect of int | Unknown_state

let target t = t.f_target
let layout_name t = t.f_layout
let message_size t = t.f_message_size
let state_count t = Array.length t.f_states
let op_count t = Array.length t.f_ops
let unknown_leaves t = t.f_unknowns

let state_label t id =
  Array.fold_left
    (fun acc st -> if st.st_id = id then Some st.st_label else acc)
    None t.f_states

(* --- static sorts (shared by the compiler's checks and decode validation) -- *)

type osort = SBool | SBv of int

exception Invalid_program of string

let op_sort ops sorts i =
  let s j =
    if j < 0 || j >= i then raise (Invalid_program "dangling op reference")
    else sorts.(j)
  in
  let bv j = match s j with SBv w -> w | SBool -> raise (Invalid_program "expected bitvector operand") in
  let boolean j = match s j with SBool -> () | SBv _ -> raise (Invalid_program "expected boolean operand") in
  let same_bv a b =
    let wa = bv a and wb = bv b in
    if wa <> wb then raise (Invalid_program "operand width mismatch");
    wa
  in
  match ops.(i) with
  | Obyte _ -> SBv 8
  | Oconst c -> SBv (Bv.width c)
  | Obool _ | Ounknown -> SBool
  | Onot a ->
      boolean a;
      SBool
  | Oand (a, b) | Oor (a, b) ->
      boolean a;
      boolean b;
      SBool
  | Oite (c, a, b) ->
      boolean c;
      if s a <> s b then raise (Invalid_program "ite branch sort mismatch");
      s a
  | Oeq (a, b) ->
      if s a <> s b then raise (Invalid_program "eq sort mismatch");
      SBool
  | Oult (a, b) | Oslt (a, b) | Oule (a, b) | Osle (a, b) ->
      ignore (same_bv a b);
      SBool
  | Oadd (a, b) | Osub (a, b) | Omul (a, b) | Oudiv (a, b) | Ourem (a, b)
  | Oband (a, b) | Obor (a, b) | Obxor (a, b) | Oshl (a, b) | Olshr (a, b)
  | Oashr (a, b) ->
      SBv (same_bv a b)
  | Obnot a -> SBv (bv a)
  | Oconcat (a, b) ->
      let w = bv a + bv b in
      if w > 64 then raise (Invalid_program "concat wider than 64 bits");
      SBv w
  | Oextract (hi, lo, a) ->
      let w = bv a in
      if not (0 <= lo && lo <= hi && hi < w) then
        raise (Invalid_program "extract out of range");
      SBv (hi - lo + 1)
  | Oinset (a, ranges) ->
      ignore (bv a);
      Array.iter
        (fun (lo, hi) ->
          if Int64.unsigned_compare lo hi > 0 then
            raise (Invalid_program "inset range inverted"))
        ranges;
      SBool

(* Sorts of every op, validating structure along the way. *)
let sorts_of ops =
  let sorts = Array.make (Array.length ops) SBool in
  Array.iteri (fun i _ -> sorts.(i) <- op_sort ops sorts i) ops;
  sorts

let validate ft =
  let n = Array.length ft.f_ops in
  if ft.f_message_size < 1 || ft.f_message_size > 0x10000 then
    raise (Invalid_program "implausible message size");
  Array.iteri
    (fun i o ->
      match o with
      | Obyte b ->
          if b < 0 || b >= ft.f_message_size then
            raise (Invalid_program "byte index out of range")
      | Oconst c ->
          if Bv.width c < 1 || Bv.width c > 64 then
            raise (Invalid_program "constant width out of range")
      | _ -> ignore i)
    ft.f_ops;
  let sorts = sorts_of ft.f_ops in
  Array.iter
    (fun st ->
      if st.st_root < 0 || st.st_root >= n then
        raise (Invalid_program "state root out of range");
      if sorts.(st.st_root) <> SBool then
        raise (Invalid_program "state root is not boolean");
      Array.iter
        (fun g ->
          if g.g_byte < 0 || g.g_byte >= ft.f_message_size then
            raise (Invalid_program "gate byte out of range");
          if g.g_lo < 0 || g.g_hi > 255 || g.g_lo > g.g_hi then
            raise (Invalid_program "gate bounds out of range"))
        st.st_gates)
    ft.f_states;
  ft

(* Ops reachable from a root, ascending. Operands always precede their op,
   so an ascending scan evaluates dependencies first. *)
let reachable ops root =
  let seen = Array.make (Array.length ops) false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      match ops.(i) with
      | Obyte _ | Oconst _ | Obool _ | Ounknown -> ()
      | Onot a | Obnot a | Oextract (_, _, a) | Oinset (a, _) -> visit a
      | Oand (a, b)
      | Oor (a, b)
      | Oeq (a, b)
      | Oult (a, b)
      | Oslt (a, b)
      | Oule (a, b)
      | Osle (a, b)
      | Oadd (a, b)
      | Osub (a, b)
      | Omul (a, b)
      | Oudiv (a, b)
      | Ourem (a, b)
      | Oband (a, b)
      | Obor (a, b)
      | Obxor (a, b)
      | Oshl (a, b)
      | Olshr (a, b)
      | Oashr (a, b)
      | Oconcat (a, b) ->
          visit a;
          visit b
      | Oite (c, a, b) ->
          visit c;
          visit a;
          visit b
    end
  in
  visit root;
  let acc = ref [] in
  for i = Array.length ops - 1 downto 0 do
    if seen.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

(* --- existential elimination ----------------------------------------------- *)

let has_aux is_aux t = List.exists is_aux (T.var_ids t)
let aux_ids is_aux t = List.filter is_aux (T.var_ids t)

let rec flatten_and t =
  match t.T.node with
  | T.And (a, b) -> flatten_and a @ flatten_and b
  | _ -> [ t ]

let bare_aux is_aux t =
  match t.T.node with
  | T.Var v when is_aux v.T.id -> Some v
  | _ -> None

(* [eq a b] between concatenations whose segment widths align pairwise
   splits into per-segment equations (surfacing one-point opportunities).
   [None] when the boundaries don't line up. *)
let split_eq a b =
  let sa = Word.parts a and sb = Word.parts b in
  if List.length sa <= 1 || List.length sa <> List.length sb then None
  else
    let rec go sa sb acc =
      match (sa, sb) with
      | [], [] -> Some (List.rev acc)
      | x :: xs, y :: ys when T.width_of x = T.width_of y ->
          go xs ys (T.eq x y :: acc)
      | _ -> None
    in
    go sa sb []

let smin w = Bv.make ~width:w (Int64.shift_left 1L (w - 1))
let smax w = Bv.lognot (smin w)

(* [∃x. atom] (or [∃x. ¬atom] with [neg]) where [x] is auxiliary, appears
   on exactly one side, and the other side [e] is aux-free: rewrite to an
   aux-free residual over [e]. *)
let qe_atom is_aux ~neg t =
  let free e = not (has_aux is_aux e) in
  let residual_bv mk e = Some (mk e) in
  match t.T.node with
  | T.Var v when is_aux v.T.id -> Some T.tru (* ∃x. x and ∃x. ¬x alike *)
  | T.Eq (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b -> Some T.tru
        (* positive: x := e; negated: every sort here has >= 2 values
           (booleans, or bitvectors of width >= 1) *)
      | _, Some _ when free a -> Some T.tru
      | _ -> None)
  | T.Ult (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b ->
          if neg then Some T.tru (* x >= e: x = ones *)
          else residual_bv (fun e -> T.neq e (T.const (Bv.zero (T.width_of e)))) b
      | _, Some _ when free a ->
          if neg then Some T.tru (* x <= e: x = 0 *)
          else residual_bv (fun e -> T.neq e (T.const (Bv.ones (T.width_of e)))) a
      | _ -> None)
  | T.Ule (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b ->
          if neg then
            residual_bv (fun e -> T.neq e (T.const (Bv.ones (T.width_of e)))) b
          else Some T.tru (* x = 0 *)
      | _, Some _ when free a ->
          if neg then
            residual_bv (fun e -> T.neq e (T.const (Bv.zero (T.width_of e)))) a
          else Some T.tru (* x = ones *)
      | _ -> None)
  | T.Slt (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b ->
          if neg then Some T.tru (* x >=s e: x = smax *)
          else residual_bv (fun e -> T.neq e (T.const (smin (T.width_of e)))) b
      | _, Some _ when free a ->
          if neg then Some T.tru (* x <=s e: x = smin *)
          else residual_bv (fun e -> T.neq e (T.const (smax (T.width_of e)))) a
      | _ -> None)
  | T.Sle (a, b) -> (
      match (bare_aux is_aux a, bare_aux is_aux b) with
      | Some _, _ when free b ->
          if neg then
            residual_bv (fun e -> T.neq e (T.const (smax (T.width_of e)))) b
          else Some T.tru (* x = smin *)
      | _, Some _ when free a ->
          if neg then
            residual_bv (fun e -> T.neq e (T.const (smin (T.width_of e)))) a
          else Some T.tru (* x = smax *)
      | _ -> None)
  | _ -> None

(* Group conjuncts into components connected by shared auxiliary ids. *)
let components is_aux conjs =
  let tagged = List.map (fun c -> (aux_ids is_aux c, [ c ])) conjs in
  let overlap a b = List.exists (fun id -> List.mem id b) a in
  let rec insert (ids, cs) = function
    | [] -> [ (ids, cs) ]
    | (ids', cs') :: rest ->
        if overlap ids ids' then
          insert (List.sort_uniq compare (ids @ ids'), cs @ cs') rest
        else (ids', cs') :: insert (ids, cs) rest
  in
  List.fold_left (fun acc grp -> insert grp acc) [] tagged
  |> List.map snd |> List.rev

let rec elim_term is_aux t =
  if not (has_aux is_aux t) then t
  else
    match t.T.node with
    | T.Or (a, b) ->
        (* ∃ always distributes over disjunction *)
        T.or_ (elim_term is_aux a) (elim_term is_aux b)
    | T.And _ -> elim_conj is_aux (flatten_and t)
    | T.Not a -> (
        match qe_atom is_aux ~neg:true a with
        | Some r -> r
        | None -> (
            (* ¬¬a, ¬(a ∨ b), ¬(a ∧ b) open up; anything else is stuck *)
            match a.T.node with
            | T.Not b -> elim_term is_aux b
            | T.Or (x, y) ->
                elim_conj is_aux (flatten_and (T.and_ (T.not_ x) (T.not_ y)))
            | T.And (x, y) ->
                elim_term is_aux (T.or_ (T.not_ x) (T.not_ y))
            | _ -> t))
    | T.Ite (c, x, y) when T.sort_of t = T.Bool ->
        elim_term is_aux (T.or_ (T.and_ c x) (T.and_ (T.not_ c) y))
    | _ -> ( match qe_atom is_aux ~neg:false t with Some r -> r | None -> t)

(* [∃(aux vars). AND conjs]. *)
and elim_conj is_aux conjs =
  (* split aligned concat equations to surface per-segment one-points *)
  let conjs =
    List.concat_map
      (fun c ->
        match c.T.node with
        | T.Eq (a, b)
          when has_aux is_aux c
               && bare_aux is_aux a = None
               && bare_aux is_aux b = None -> (
            match split_eq a b with Some eqs -> eqs | None -> [ c ])
        | _ -> [ c ])
      conjs
  in
  (* one-point rule: x = e with x auxiliary and x not in e *)
  let one_point =
    List.find_map
      (fun c ->
        match c.T.node with
        | T.Eq (a, b) -> (
            match bare_aux is_aux a with
            | Some v when not (List.mem v.T.id (T.var_ids b)) -> Some (c, v, b)
            | _ -> (
                match bare_aux is_aux b with
                | Some v when not (List.mem v.T.id (T.var_ids a)) ->
                    Some (c, v, a)
                | _ -> None))
        | _ -> None)
      conjs
  in
  match one_point with
  | Some (eq_conjunct, v, e) ->
      let subst_var (u : T.var) =
        if u.T.id = v.T.id then Some e else None
      in
      elim_conj is_aux
        (List.filter_map
           (fun c -> if c == eq_conjunct then None else Some (T.subst subst_var c))
           conjs)
  | None ->
      let plain, auxed = List.partition (fun c -> not (has_aux is_aux c)) conjs in
      let resolved =
        List.concat_map
          (fun comp ->
            match comp with
            | [ single ] ->
                (* all of its aux vars are private to it: descend *)
                let r = elim_term_descend is_aux single in
                flatten_and r
            | several -> (
                (* shared aux vars: eliminate the vars private to each
                   conjunct, then retry the component as a whole *)
                let all_ids = List.concat_map (aux_ids is_aux) several in
                let count id =
                  List.length
                    (List.filter (fun c -> List.mem id (aux_ids is_aux c)) several)
                in
                let progressed = ref false in
                let several' =
                  List.map
                    (fun c ->
                      let private_ids =
                        List.filter (fun id -> count id = 1) (aux_ids is_aux c)
                      in
                      if private_ids = [] then c
                      else
                        let is_private id =
                          is_aux id && List.mem id private_ids
                        in
                        let c' = elim_term is_private c in
                        if not (T.equal c' c) then progressed := true;
                        c')
                    several
                in
                ignore all_ids;
                if !progressed then flatten_and (elim_conj is_aux several')
                else several))
          (components is_aux auxed)
      in
      T.and_l (plain @ resolved)

(* elim_term, but never bounce straight back into elim_conj on an
   unchanged conjunction (the single-conjunct component case): descend
   into the conjunct's own structure. *)
and elim_term_descend is_aux t =
  match t.T.node with
  | T.And _ ->
      let parts = flatten_and t in
      if List.length parts > 1 then elim_conj is_aux parts else t
  | _ -> elim_term is_aux t

(* --- compilation ----------------------------------------------------------- *)

exception Unlowerable of string

type builder = {
  mutable ops_rev : op list;
  mutable n_ops : int;
  memo : int T.Tbl.t; (* term -> op index (hash-consed CSE) *)
  byte_of : (int, int) Hashtbl.t; (* message var id -> byte index *)
  mutable mapping : (int * int) list; (* the mapping the memo was built under *)
  mutable unknowns : int;
}

let push b o =
  let idx = b.n_ops in
  b.ops_rev <- o :: b.ops_rev;
  b.n_ops <- idx + 1;
  idx

let push_unknown b =
  b.unknowns <- b.unknowns + 1;
  push b Ounknown

let rec lower b t =
  match T.Tbl.find_opt b.memo t with
  | Some idx -> idx
  | None ->
      let idx =
        match t.T.node with
        | T.True -> push b (Obool true)
        | T.False -> push b (Obool false)
        | T.Const c -> push b (Oconst c)
        | T.Var v -> (
            match Hashtbl.find_opt b.byte_of v.T.id with
            | Some i -> push b (Obyte i)
            | None -> raise (Unlowerable "auxiliary variable survived"))
        | T.Not a -> push b (Onot (lower b a))
        | T.And (x, y) -> push b (Oand (lower b x, lower b y))
        | T.Or (x, y) -> push b (Oor (lower b x, lower b y))
        | T.Ite (c, x, y) -> push b (Oite (lower b c, lower b x, lower b y))
        | T.Eq (x, y) -> push b (Oeq (lower b x, lower b y))
        | T.Ult (x, y) -> push b (Oult (lower b x, lower b y))
        | T.Slt (x, y) -> push b (Oslt (lower b x, lower b y))
        | T.Ule (x, y) -> push b (Oule (lower b x, lower b y))
        | T.Sle (x, y) -> push b (Osle (lower b x, lower b y))
        | T.Add (x, y) -> push b (Oadd (lower b x, lower b y))
        | T.Sub (x, y) -> push b (Osub (lower b x, lower b y))
        | T.Mul (x, y) -> push b (Omul (lower b x, lower b y))
        | T.Udiv (x, y) -> push b (Oudiv (lower b x, lower b y))
        | T.Urem (x, y) -> push b (Ourem (lower b x, lower b y))
        | T.Bnot a -> push b (Obnot (lower b a))
        | T.Band (x, y) -> push b (Oband (lower b x, lower b y))
        | T.Bor (x, y) -> push b (Obor (lower b x, lower b y))
        | T.Bxor (x, y) -> push b (Obxor (lower b x, lower b y))
        | T.Shl (x, y) -> push b (Oshl (lower b x, lower b y))
        | T.Lshr (x, y) -> push b (Olshr (lower b x, lower b y))
        | T.Ashr (x, y) -> push b (Oashr (lower b x, lower b y))
        | T.Concat (x, y) ->
            if T.width_of t > 64 then
              raise (Unlowerable "concatenation wider than 64 bits")
            else push b (Oconcat (lower b x, lower b y))
        | T.Extract (hi, lo, a) -> push b (Oextract (hi, lo, lower b a))
      in
      T.Tbl.replace b.memo t idx;
      idx

(* Project an irreducible residue onto its message bytes by bounded model
   enumeration; the solutions, collapsed to unsigned ranges over the bytes'
   big-endian concatenation, become an [Oinset]. [None] past the budget. *)
let enumerate_residue ~budget b msg_vars t =
  let byte_idxs =
    T.var_ids t
    |> List.filter_map (fun id -> Hashtbl.find_opt b.byte_of id)
    |> List.sort_uniq compare
  in
  let nbytes = List.length byte_idxs in
  if nbytes = 0 || nbytes > 8 then None
  else
    let vars = List.map (fun i -> msg_vars.(i)) byte_idxs in
    let byte_value model v =
      match Model.find model v with
      | Some (Model.Vbv bv) -> bv
      | Some (Model.Vbool _) -> Bv.zero 8
      | None -> Bv.zero 8 (* unconstrained: zero is a valid completion *)
    in
    let rec enumerate blocked values n =
      if n > budget then None
      else
        match Solver.check (t :: blocked) with
        | Solver.Unknown -> None
        | Solver.Unsat -> Some values
        | Solver.Sat model ->
            let bytes = List.map (byte_value model) vars in
            let packed =
              List.fold_left
                (fun acc bv ->
                  Int64.logor (Int64.shift_left acc 8) (Bv.value bv))
                0L bytes
            in
            let block =
              T.not_
                (T.and_l
                   (List.map2 (fun v bv -> T.eq (T.var v) (T.const bv)) vars
                      bytes))
            in
            enumerate (block :: blocked) (packed :: values) (n + 1)
    in
    match enumerate [] [] 0 with
    | None -> None
    | Some values ->
        let sorted =
          List.sort_uniq Int64.unsigned_compare values
        in
        (* collapse adjacent values into inclusive ranges *)
        let ranges =
          List.fold_left
            (fun acc v ->
              match acc with
              | (lo, hi) :: rest when Int64.sub v hi = 1L -> (lo, v) :: rest
              | _ -> (v, v) :: acc)
            [] sorted
          |> List.rev |> Array.of_list
        in
        let value_op =
          match byte_idxs with
          | [] -> assert false
          | first :: rest ->
              List.fold_left
                (fun acc i -> push b (Oconcat (acc, push b (Obyte i))))
                (push b (Obyte first))
                rest
        in
        Some (push b (Oinset (value_op, ranges)))

(* One conjunct of a state's query -> a boolean op index, or [None] when
   the conjunct is constantly true. Raises [Exit] via the caller's check
   when constantly false (the state compiles away). *)
exception State_is_false

let compile_conjunct ~budget b msg_vars is_aux t =
  let t = if has_aux is_aux t then elim_conj is_aux (flatten_and t) else t in
  if T.equal t T.tru then None
  else if T.equal t T.fls then raise State_is_false
  else if not (has_aux is_aux t) then
    match lower b t with
    | idx -> Some idx
    | exception Unlowerable _ -> Some (push_unknown b)
  else
    (* aux vars survived elimination *)
    let msg_free =
      List.for_all (fun id -> not (Hashtbl.mem b.byte_of id)) (T.var_ids t)
    in
    if msg_free then
      (* closed existential: one solver call decides it for good *)
      match Solver.check [ t ] with
      | Solver.Sat _ -> None
      | Solver.Unsat -> raise State_is_false
      | Solver.Unknown -> Some (push_unknown b)
    else
      match enumerate_residue ~budget b msg_vars t with
      | Some idx -> Some idx
      | None -> Some (push_unknown b)

(* Byte-bound gates from the pure-message conjuncts: necessary conditions
   for the whole query, checked with two compares per gate before the DAG
   runs. *)
let gates_of direct byte_of =
  match Word.bounds direct with
  | None -> None (* the pure-message part alone is unsatisfiable *)
  | Some bounds ->
      Some
        (List.filter_map
           (fun ((base : T.t), (b : Word.range)) ->
             match base.T.node with
             | T.Var v -> (
                 match Hashtbl.find_opt byte_of v.T.id with
                 | Some byte when b.Word.lo > 0L || b.Word.hi < 255L ->
                     Some
                       {
                         g_byte = byte;
                         g_lo = Int64.to_int b.Word.lo;
                         g_hi = Int64.to_int b.Word.hi;
                       }
                 | _ -> None)
             | _ -> None)
           bounds
        |> Array.of_list)

let compile ?(enum_values = 512) ~target ~layout ~report () =
  let b =
    {
      ops_rev = [];
      n_ops = 0;
      memo = T.Tbl.create 1024;
      byte_of = Hashtbl.create 64;
      mapping = [];
      unknowns = 0;
    }
  in
  let states =
    List.filter_map
      (fun ((sp : Predicate.server_path), query) ->
        match query with
        | None -> None (* provably no Trojan reaches this state *)
        | Some terms -> (
            (* every bundled target uses one symbolic message for all
               states, so the memo (keyed by terms mentioning those vars)
               carries over; reset it if the var->byte mapping ever shifts *)
            let mapping =
              Array.to_list
                (Array.mapi (fun i (v : T.var) -> (v.T.id, i))
                   sp.Predicate.msg_vars)
            in
            if mapping <> b.mapping then begin
              T.Tbl.reset b.memo;
              Hashtbl.reset b.byte_of;
              List.iter (fun (id, i) -> Hashtbl.replace b.byte_of id i) mapping;
              b.mapping <- mapping
            end;
            let is_aux id = not (Hashtbl.mem b.byte_of id) in
            let conjuncts = T.dedup (List.concat_map flatten_and terms) in
            let direct =
              List.filter (fun c -> not (has_aux is_aux c)) conjuncts
            in
            match gates_of direct b.byte_of with
            | None -> None
            | Some gates -> (
                match
                  List.filter_map
                    (compile_conjunct ~budget:enum_values b
                       sp.Predicate.msg_vars is_aux)
                    conjuncts
                with
                | exception State_is_false -> None
                | [] ->
                    Some
                      {
                        st_id = sp.Predicate.sp_state_id;
                        st_label = sp.Predicate.label;
                        st_gates = gates;
                        st_root = push b (Obool true);
                        st_ops = [||];
                      }
                | roots ->
                    let root =
                      List.fold_left
                        (fun acc r -> push b (Oand (acc, r)))
                        (List.hd roots) (List.tl roots)
                    in
                    Some
                      {
                        st_id = sp.Predicate.sp_state_id;
                        st_label = sp.Predicate.label;
                        st_gates = gates;
                        st_root = root;
                        st_ops = [||];
                      })))
      (Search.trojan_queries report)
  in
  let ops = Array.of_list (List.rev b.ops_rev) in
  let states =
    List.map (fun st -> { st with st_ops = reachable ops st.st_root }) states
  in
  Obs.count ~n:b.unknowns "filter.compile.unknown_leaves";
  Obs.count ~n:(List.length states) "filter.compile.states";
  validate
    {
      f_target = target;
      f_layout = Layout.name layout;
      f_message_size = Layout.total_size layout;
      f_unknowns = b.unknowns;
      f_ops = ops;
      f_states = Array.of_list states;
    }

(* --- evaluation ------------------------------------------------------------ *)

(* Values live unboxed: a tag byte per op (false/true/unknown/bitvector) and,
   for bitvectors, an int64 Bigarray slot kept masked to the op's width. The
   int64 kernel below is written out here rather than called in [Bv]: dune's
   dev profile compiles with [-opaque], so every cross-module call taking or
   returning an int64 boxes it. The helpers are [@inline] and [gate_ok] /
   [scan] are top-level recursive functions, so no closure is allocated per
   message either. Reads are unchecked: [validate] bounds every operand and
   byte index, and [verdict_sub] the message range. *)

type int64s = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let k_false = 0
let k_true = 1
let k_unknown = 2
let k_bv = 3

type evaluator = {
  ft : t;
  tags : Stdlib.Bytes.t; (* per op: k_false / k_true / k_unknown / k_bv *)
  vals : int64s; (* per op: the value when its tag is k_bv *)
  masks : int64s; (* per bitvector op: 2^width - 1 *)
  widths : int array; (* per bitvector op: width; 0 for booleans *)
  stamp : int array;
  mutable tick : int;
  mutable src : Stdlib.Bytes.t; (* the message being judged ... *)
  mutable off : int; (* ... starts at this offset *)
}

let evaluator ft =
  let ops = ft.f_ops in
  let sorts = sorts_of ops in
  let n = Array.length ops in
  let int64s f = Bigarray.Array1.init Bigarray.int64 Bigarray.c_layout n f in
  {
    ft;
    (* constant leaves get their tag and value here, once *)
    tags =
      Stdlib.Bytes.init n (fun i ->
          Char.chr
            (match ops.(i) with
            | Oconst _ -> k_bv
            | Obool b -> if b then k_true else k_false
            | _ -> k_unknown));
    vals = int64s (fun i -> match ops.(i) with Oconst c -> Bv.value c | _ -> 0L);
    masks =
      int64s (fun i ->
          match sorts.(i) with SBv w -> Bv.value (Bv.ones w) | SBool -> 0L);
    widths = Array.map (function SBv w -> w | SBool -> 0) sorts;
    stamp = Array.make n 0;
    tick = 0;
    src = Stdlib.Bytes.empty;
    off = 0;
  }

let[@inline] tag ev j = Char.code (Stdlib.Bytes.unsafe_get ev.tags j)
let[@inline] set_tag ev i k = Stdlib.Bytes.unsafe_set ev.tags i (Char.unsafe_chr k)
let[@inline] value ev j = Bigarray.Array1.unsafe_get ev.vals j
let[@inline] set_bool ev i b = set_tag ev i (if b then k_true else k_false)

let[@inline] set_bv ev i (x : int64) =
  set_tag ev i k_bv;
  Bigarray.Array1.unsafe_set ev.vals i
    (Int64.logand x (Bigarray.Array1.unsafe_get ev.masks i))

let[@inline] both_bv ev a b = tag ev a = k_bv && tag ev b = k_bv

(* [x] as a signed [w]-bit value *)
let[@inline] sext (x : int64) w =
  Int64.shift_right (Int64.shift_left x (64 - w)) (64 - w)

let[@inline] ult (x : int64) (y : int64) =
  Int64.sub x Int64.min_int < Int64.sub y Int64.min_int

let[@inline] udiv (n : int64) (d : int64) =
  if d < 0L then if ult n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    if ult (Int64.sub n (Int64.mul q d)) d then q else Int64.add q 1L

(* Shift amounts are unsigned and at most [w] bits wide: an amount of [w] or
   more shifts every bit out. *)
let[@inline] shift_in_range (amount : int64) w = ult amount (Int64.of_int w)

let eval_op ev i =
  match Array.unsafe_get ev.ft.f_ops i with
  | Obyte k ->
      set_bv ev i
        (Int64.of_int (Char.code (Stdlib.Bytes.unsafe_get ev.src (ev.off + k))))
  | Oconst _ | Obool _ | Ounknown -> () (* set once by [evaluator] *)
  | Onot a ->
      let x = tag ev a in
      if x = k_unknown then set_tag ev i k_unknown else set_bool ev i (x = k_false)
  | Oand (a, b) ->
      let x = tag ev a and y = tag ev b in
      if x = k_false || y = k_false then set_tag ev i k_false
      else if x = k_true && y = k_true then set_tag ev i k_true
      else set_tag ev i k_unknown
  | Oor (a, b) ->
      let x = tag ev a and y = tag ev b in
      if x = k_true || y = k_true then set_tag ev i k_true
      else if x = k_false && y = k_false then set_tag ev i k_false
      else set_tag ev i k_unknown
  | Oite (c, a, b) ->
      let x = tag ev c in
      if x = k_unknown then set_tag ev i k_unknown
      else begin
        let j = if x = k_true then a else b in
        set_tag ev i (tag ev j);
        Bigarray.Array1.unsafe_set ev.vals i (value ev j)
      end
  | Oeq (a, b) ->
      let x = tag ev a and y = tag ev b in
      if x = k_unknown || y = k_unknown then set_tag ev i k_unknown
      else if x = k_bv then set_bool ev i (value ev a = value ev b)
      else set_bool ev i (x = y)
  | Oult (a, b) ->
      if both_bv ev a b then set_bool ev i (ult (value ev a) (value ev b))
      else set_tag ev i k_unknown
  | Oule (a, b) ->
      if both_bv ev a b then set_bool ev i (not (ult (value ev b) (value ev a)))
      else set_tag ev i k_unknown
  | Oslt (a, b) ->
      if both_bv ev a b then
        let w = Array.unsafe_get ev.widths a in
        set_bool ev i (sext (value ev a) w < sext (value ev b) w)
      else set_tag ev i k_unknown
  | Osle (a, b) ->
      if both_bv ev a b then
        let w = Array.unsafe_get ev.widths a in
        set_bool ev i (sext (value ev a) w <= sext (value ev b) w)
      else set_tag ev i k_unknown
  | Oadd (a, b) ->
      if both_bv ev a b then set_bv ev i (Int64.add (value ev a) (value ev b))
      else set_tag ev i k_unknown
  | Osub (a, b) ->
      if both_bv ev a b then set_bv ev i (Int64.sub (value ev a) (value ev b))
      else set_tag ev i k_unknown
  | Omul (a, b) ->
      if both_bv ev a b then set_bv ev i (Int64.mul (value ev a) (value ev b))
      else set_tag ev i k_unknown
  | Oudiv (a, b) ->
      if both_bv ev a b then
        let d = value ev b in
        set_bv ev i (if d = 0L then -1L else udiv (value ev a) d)
      else set_tag ev i k_unknown
  | Ourem (a, b) ->
      if both_bv ev a b then
        let n = value ev a and d = value ev b in
        set_bv ev i (if d = 0L then n else Int64.sub n (Int64.mul (udiv n d) d))
      else set_tag ev i k_unknown
  | Obnot a ->
      if tag ev a = k_bv then set_bv ev i (Int64.lognot (value ev a))
      else set_tag ev i k_unknown
  | Oband (a, b) ->
      if both_bv ev a b then set_bv ev i (Int64.logand (value ev a) (value ev b))
      else set_tag ev i k_unknown
  | Obor (a, b) ->
      if both_bv ev a b then set_bv ev i (Int64.logor (value ev a) (value ev b))
      else set_tag ev i k_unknown
  | Obxor (a, b) ->
      if both_bv ev a b then set_bv ev i (Int64.logxor (value ev a) (value ev b))
      else set_tag ev i k_unknown
  | Oshl (a, b) ->
      if both_bv ev a b then
        let n = value ev b in
        set_bv ev i
          (if shift_in_range n (Array.unsafe_get ev.widths i) then
             Int64.shift_left (value ev a) (Int64.to_int n)
           else 0L)
      else set_tag ev i k_unknown
  | Olshr (a, b) ->
      if both_bv ev a b then
        let n = value ev b in
        set_bv ev i
          (if shift_in_range n (Array.unsafe_get ev.widths i) then
             Int64.shift_right_logical (value ev a) (Int64.to_int n)
           else 0L)
      else set_tag ev i k_unknown
  | Oashr (a, b) ->
      if both_bv ev a b then
        let n = value ev b and w = Array.unsafe_get ev.widths i in
        let x = sext (value ev a) w in
        set_bv ev i
          (if shift_in_range n w then Int64.shift_right x (Int64.to_int n)
           else Int64.shift_right x 63)
      else set_tag ev i k_unknown
  | Oconcat (a, b) ->
      if both_bv ev a b then
        set_bv ev i
          (Int64.logor
             (Int64.shift_left (value ev a) (Array.unsafe_get ev.widths b))
             (value ev b))
      else set_tag ev i k_unknown
  | Oextract (_, lo, a) ->
      if tag ev a = k_bv then set_bv ev i (Int64.shift_right_logical (value ev a) lo)
      else set_tag ev i k_unknown
  | Oinset (a, ranges) ->
      if tag ev a = k_bv then begin
        let x = value ev a in
        let found = ref false and k = ref 0 in
        while (not !found) && !k < Array.length ranges do
          let lo, hi = Array.unsafe_get ranges !k in
          found := (not (ult x lo)) && not (ult hi x);
          incr k
        done;
        set_bool ev i !found
      end
      else set_tag ev i k_unknown

let rec gate_ok ev gates i =
  i >= Array.length gates
  ||
  let g = Array.unsafe_get gates i in
  let byte = Char.code (Stdlib.Bytes.unsafe_get ev.src (ev.off + g.g_byte)) in
  byte >= g.g_lo && byte <= g.g_hi && gate_ok ev gates (i + 1)

(* Tag of the state's root: its Trojan query under the current message. *)
let eval_state ev st =
  if not (gate_ok ev st.st_gates 0) then k_false
  else begin
    let ops = st.st_ops in
    for k = 0 to Array.length ops - 1 do
      let i = Array.unsafe_get ops k in
      if Array.unsafe_get ev.stamp i <> ev.tick then begin
        eval_op ev i;
        Array.unsafe_set ev.stamp i ev.tick
      end
    done;
    tag ev st.st_root
  end

let rec scan ev states i unknown =
  if i >= Array.length states then if unknown then Unknown_state else Accept
  else
    let st = Array.unsafe_get states i in
    let r = eval_state ev st in
    if r = k_true then Trojan_suspect st.st_id
    else scan ev states (i + 1) (unknown || r = k_unknown)

let verdict_core ev =
  ev.tick <- ev.tick + 1;
  scan ev ev.ft.f_states 0 false

let verdict_sub ev bytes off len =
  if off < 0 || len < 0 || off > Stdlib.Bytes.length bytes - len then
    invalid_arg "Filter.verdict_sub";
  if len <> ev.ft.f_message_size then Unknown_state
  else begin
    ev.src <- bytes;
    ev.off <- off;
    verdict_core ev
  end

let verdict_bytes ev bytes = verdict_sub ev bytes 0 (Stdlib.Bytes.length bytes)

let verdict ev message =
  if Array.length message <> ev.ft.f_message_size then Unknown_state
  else begin
    let msg = Stdlib.Bytes.create (Array.length message) in
    Array.iteri
      (fun i bv ->
        if Bv.width bv <> 8 then
          invalid_arg "Filter.verdict: message bytes must be 8 bits wide";
        Stdlib.Bytes.set msg i (Char.chr (Bv.to_int bv)))
      message;
    verdict_sub ev msg 0 (Stdlib.Bytes.length msg)
  end

(* --- serialization --------------------------------------------------------- *)

let magic = "ACHFLT01"

let encode_payload ft =
  let buf = Buffer.create 4096 in
  let u8 n = Buffer.add_char buf (Char.chr (n land 0xff)) in
  let u32 n =
    u8 (n lsr 24);
    u8 (n lsr 16);
    u8 (n lsr 8);
    u8 n
  in
  let i64 n = Buffer.add_int64_be buf n in
  let str s =
    if String.length s > 0xffff then invalid_arg "Filter: string too long";
    u8 (String.length s lsr 8);
    u8 (String.length s);
    Buffer.add_string buf s
  in
  str ft.f_target;
  str ft.f_layout;
  u32 ft.f_message_size;
  u32 ft.f_unknowns;
  u32 (Array.length ft.f_ops);
  Array.iter
    (fun o ->
      match o with
      | Obyte i ->
          u8 0;
          u32 i
      | Oconst c ->
          u8 1;
          u8 (Bv.width c);
          i64 (Bv.value c)
      | Obool false -> u8 2
      | Obool true -> u8 3
      | Ounknown -> u8 4
      | Onot a ->
          u8 5;
          u32 a
      | Oand (a, b) ->
          u8 6;
          u32 a;
          u32 b
      | Oor (a, b) ->
          u8 7;
          u32 a;
          u32 b
      | Oite (c, a, b) ->
          u8 8;
          u32 c;
          u32 a;
          u32 b
      | Oeq (a, b) ->
          u8 9;
          u32 a;
          u32 b
      | Oult (a, b) ->
          u8 10;
          u32 a;
          u32 b
      | Oslt (a, b) ->
          u8 11;
          u32 a;
          u32 b
      | Oule (a, b) ->
          u8 12;
          u32 a;
          u32 b
      | Osle (a, b) ->
          u8 13;
          u32 a;
          u32 b
      | Oadd (a, b) ->
          u8 14;
          u32 a;
          u32 b
      | Osub (a, b) ->
          u8 15;
          u32 a;
          u32 b
      | Omul (a, b) ->
          u8 16;
          u32 a;
          u32 b
      | Oudiv (a, b) ->
          u8 17;
          u32 a;
          u32 b
      | Ourem (a, b) ->
          u8 18;
          u32 a;
          u32 b
      | Obnot a ->
          u8 19;
          u32 a
      | Oband (a, b) ->
          u8 20;
          u32 a;
          u32 b
      | Obor (a, b) ->
          u8 21;
          u32 a;
          u32 b
      | Obxor (a, b) ->
          u8 22;
          u32 a;
          u32 b
      | Oshl (a, b) ->
          u8 23;
          u32 a;
          u32 b
      | Olshr (a, b) ->
          u8 24;
          u32 a;
          u32 b
      | Oashr (a, b) ->
          u8 25;
          u32 a;
          u32 b
      | Oconcat (a, b) ->
          u8 26;
          u32 a;
          u32 b
      | Oextract (hi, lo, a) ->
          u8 27;
          u8 hi;
          u8 lo;
          u32 a
      | Oinset (a, ranges) ->
          u8 28;
          u32 a;
          u32 (Array.length ranges);
          Array.iter
            (fun (lo, hi) ->
              i64 lo;
              i64 hi)
            ranges)
    ft.f_ops;
  u32 (Array.length ft.f_states);
  Array.iter
    (fun st ->
      u32 st.st_id;
      str st.st_label;
      u32 (Array.length st.st_gates);
      Array.iter
        (fun g ->
          u32 g.g_byte;
          u8 g.g_lo;
          u8 g.g_hi)
        st.st_gates;
      u32 st.st_root)
    ft.f_states;
  Buffer.contents buf

let to_string ft = Sealed.seal ~magic (encode_payload ft)

exception Decode_error of string

let of_string s =
  let fail msg = raise (Decode_error msg) in
  try
    let payload =
      match Sealed.unseal ~magic s with
      | Ok payload -> payload
      | Error reason -> fail (Printf.sprintf "not a valid filter image (%s)" reason)
    in
    let payload_len = String.length payload in
    let pos = ref 0 in
    let u8 () =
      if !pos >= payload_len then fail "truncated payload";
      let c = Char.code payload.[!pos] in
      incr pos;
      c
    in
    let u32 () =
      let a = u8 () in
      let b = u8 () in
      let c = u8 () in
      let d = u8 () in
      (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
    in
    let i64 () =
      if !pos + 8 > payload_len then fail "truncated payload";
      let v = String.get_int64_be payload !pos in
      pos := !pos + 8;
      v
    in
    let str () =
      let hi = u8 () in
      let lo = u8 () in
      let len = (hi lsl 8) lor lo in
      if !pos + len > payload_len then fail "truncated payload";
      let s = String.sub payload !pos len in
      pos := !pos + len;
      s
    in
    let f_target = str () in
    let f_layout = str () in
    let f_message_size = u32 () in
    let f_unknowns = u32 () in
    let n_ops = u32 () in
    if n_ops > payload_len then fail "implausible op count";
    let decode_op () =
      let pair mk =
        let a = u32 () in
        let b = u32 () in
        mk a b
      in
      match u8 () with
      | 0 -> Obyte (u32 ())
      | 1 ->
          let w = u8 () in
          if w < 1 || w > 64 then fail "constant width out of range";
          Oconst (Bv.make ~width:w (i64 ()))
      | 2 -> Obool false
      | 3 -> Obool true
      | 4 -> Ounknown
      | 5 -> Onot (u32 ())
      | 6 -> pair (fun a b -> Oand (a, b))
      | 7 -> pair (fun a b -> Oor (a, b))
      | 8 ->
          let c = u32 () in
          pair (fun a b -> Oite (c, a, b))
      | 9 -> pair (fun a b -> Oeq (a, b))
      | 10 -> pair (fun a b -> Oult (a, b))
      | 11 -> pair (fun a b -> Oslt (a, b))
      | 12 -> pair (fun a b -> Oule (a, b))
      | 13 -> pair (fun a b -> Osle (a, b))
      | 14 -> pair (fun a b -> Oadd (a, b))
      | 15 -> pair (fun a b -> Osub (a, b))
      | 16 -> pair (fun a b -> Omul (a, b))
      | 17 -> pair (fun a b -> Oudiv (a, b))
      | 18 -> pair (fun a b -> Ourem (a, b))
      | 19 -> Obnot (u32 ())
      | 20 -> pair (fun a b -> Oband (a, b))
      | 21 -> pair (fun a b -> Obor (a, b))
      | 22 -> pair (fun a b -> Obxor (a, b))
      | 23 -> pair (fun a b -> Oshl (a, b))
      | 24 -> pair (fun a b -> Olshr (a, b))
      | 25 -> pair (fun a b -> Oashr (a, b))
      | 26 -> pair (fun a b -> Oconcat (a, b))
      | 27 ->
          let hi = u8 () in
          let lo = u8 () in
          Oextract (hi, lo, u32 ())
      | 28 ->
          let a = u32 () in
          let n = u32 () in
          if n > payload_len then fail "implausible range count";
          let ranges =
            Array.init n (fun _ ->
                let lo = i64 () in
                let hi = i64 () in
                (lo, hi))
          in
          Oinset (a, ranges)
      | _ -> fail "unknown op tag"
    in
    let f_ops = Array.init n_ops (fun _ -> decode_op ()) in
    let n_states = u32 () in
    if n_states > payload_len then fail "implausible state count";
    let decode_state () =
      let st_id = u32 () in
      let st_label = str () in
      let n_gates = u32 () in
      if n_gates > payload_len then fail "implausible gate count";
      let st_gates =
        Array.init n_gates (fun _ ->
            let g_byte = u32 () in
            let g_lo = u8 () in
            let g_hi = u8 () in
            { g_byte; g_lo; g_hi })
      in
      let st_root = u32 () in
      { st_id; st_label; st_gates; st_root; st_ops = [||] }
    in
    let states = Array.init n_states (fun _ -> decode_state ()) in
    if !pos <> payload_len then fail "trailing garbage in payload";
    let ft =
      validate
        {
          f_target;
          f_layout;
          f_message_size;
          f_unknowns;
          f_ops;
          f_states = states;
        }
    in
    Ok
      {
        ft with
        f_states =
          Array.map
            (fun st -> { st with st_ops = reachable ft.f_ops st.st_root })
            ft.f_states;
      }
  with
  | Decode_error msg -> Error msg
  | Invalid_program msg -> Error (Printf.sprintf "invalid filter program: %s" msg)
  | Invalid_argument msg -> Error (Printf.sprintf "malformed image: %s" msg)

let save ft ~file =
  match Sealed.write ~path:file (to_string ft) with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let load ~file =
  match Sealed.read file with
  | None -> Error (Printf.sprintf "%s: missing or unreadable" file)
  | Some content -> (
      match of_string content with
      | Ok ft -> Ok ft
      | Error msg -> Error (Printf.sprintf "%s: %s" file msg))

let pp_summary ppf ft =
  Format.fprintf ppf
    "filter for %s (layout %s, %d-byte messages): %d states, %d ops, %d \
     gates, %d unknown leaves"
    ft.f_target ft.f_layout ft.f_message_size
    (Array.length ft.f_states)
    (Array.length ft.f_ops)
    (Array.fold_left (fun n st -> n + Array.length st.st_gates) 0 ft.f_states)
    ft.f_unknowns
