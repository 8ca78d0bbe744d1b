type range = { lo : int64; hi : int64 }

let ucmp = Int64.unsigned_compare
let umin a b = if ucmp a b <= 0 then a else b
let umax a b = if ucmp a b >= 0 then a else b

(* --- atoms --------------------------------------------------------------- *)

type atom =
  | Range of Term.t * int64 * int64 (* base in [lo, hi], unsigned *)
  | Hole of Term.t * int64 (* base <> c *)
  | Never (* false on its own *)

(* [b < c], [b > c], [b <= c] and [b >= c] for a base of maximum [m] *)
let below b c _ = if c = 0L then Never else Range (b, 0L, Int64.pred c)
let above b c m = if ucmp c m >= 0 then Never else Range (b, Int64.succ c, m)
let at_most b c _ = Range (b, 0L, c)
let at_least b c m = Range (b, c, m)

(* the constant has the base's width *)
let cmp f b c = f b (Bv.value c) (Bv.value (Bv.ones (Bv.width c)))

(* The conjunct as per-base atoms in scan order, and whether they say
   exactly what it says. A part that is not a comparison of a term against
   a constant (or a negated conjunction, which is a disjunction) is dropped:
   the atoms are then weaker than the conjunct, which is still sound for
   pruning but not for deciding. *)
let atoms t =
  let exact = ref true in
  let rec scan pos acc (t : Term.t) =
    match (t.Term.node, pos) with
    | Term.Not t, _ -> scan (not pos) acc t
    | Term.And (a, b), true -> scan true (scan true acc a) b
    | Term.True, true | Term.False, false -> acc
    | Term.False, true | Term.True, false -> Never :: acc
    | Term.Eq (b, { node = Const c; _ }), _
    | Term.Eq ({ node = Const c; _ }, b), _ ->
        let c = Bv.value c in
        (if pos then Range (b, c, c) else Hole (b, c)) :: acc
    | Term.Ult (b, { node = Const c; _ }), _ ->
        cmp (if pos then below else at_least) b c :: acc
    | Term.Ult ({ node = Const c; _ }, b), _ ->
        cmp (if pos then above else at_most) b c :: acc
    | Term.Ule (b, { node = Const c; _ }), _ ->
        cmp (if pos then at_most else above) b c :: acc
    | Term.Ule ({ node = Const c; _ }, b), _ ->
        cmp (if pos then at_least else below) b c :: acc
    | _ ->
        exact := false;
        acc
  in
  let l = List.rev (scan true [] t) in
  (l, !exact)

(* --- bounds -------------------------------------------------------------- *)

let bounds terms =
  let ranges = ref [] and holes = ref [] and empty = ref false in
  let find b = List.find_opt (fun (b', _) -> Term.equal b b') !ranges in
  List.iter
    (fun t ->
      List.iter
        (function
          | Never -> empty := true
          | Hole (b, c) -> holes := (b, c) :: !holes
          | Range (b, lo, hi) when not !empty ->
              (* an atom's range lies inside its base's width *)
              let lo, hi =
                match find b with
                | Some (_, r) -> (umax r.lo lo, umin r.hi hi)
                | None -> (lo, hi)
              in
              if ucmp lo hi > 0 then empty := true
              else
                ranges :=
                  (b, { lo; hi })
                  :: List.filter (fun (b', _) -> not (Term.equal b b')) !ranges
          | Range _ -> ())
        (fst (atoms t)))
    terms;
  if !empty then None
  else
    (* tighten range edges against the holes *)
    let rec tighten b r =
      let hole x =
        List.exists (fun (b', c) -> c = x && Term.equal b b') !holes
      in
      if hole r.lo then
        if r.lo = r.hi then None else tighten b { r with lo = Int64.succ r.lo }
      else if hole r.hi then
        if r.lo = r.hi then None else tighten b { r with hi = Int64.pred r.hi }
      else Some (b, r)
    in
    let tightened = List.map (fun (b, r) -> tighten b r) !ranges in
    if List.exists Option.is_none tightened then None
    else Some (List.filter_map Fun.id tightened)

(* --- images -------------------------------------------------------------- *)

let rec parts (t : Term.t) =
  match t.Term.node with
  | Term.Concat (hi, lo) -> parts hi @ parts lo
  | _ -> [ t ]

(* A base's value set when it is a concatenation of constants and
   pairwise-distinct variables: an injective function of its variables, so
   the image is every value whose [free] bits are anything and whose other
   bits equal [fixed] — [2^bits] values. *)
type image = { fixed : int64; free : int64; bits : int }

let image t =
  let leaf (t : Term.t) =
    match t.Term.node with
    | Term.Const c -> (c, Bv.zero (Bv.width c))
    | Term.Var _ -> (Bv.zero (Term.width_of t), Bv.ones (Term.width_of t))
    | _ -> raise Exit
  in
  let ps = parts t in
  let vars = List.concat_map Term.var_ids ps in
  match List.map leaf ps with
  | exception Exit -> None
  | _ when List.length (List.sort_uniq compare vars) <> List.length vars -> None
  | [] -> None
  | l :: ls ->
      let fixed, free =
        List.fold_left
          (fun (c, m) (c', m') -> (Bv.concat c c', Bv.concat m m'))
          l ls
      in
      let bits =
        List.fold_left
          (fun n (p : Term.t) ->
            match p.Term.node with Term.Var _ -> n + Term.width_of p | _ -> n)
          0 ps
      in
      Some { fixed = Bv.value fixed; free = Bv.value free; bits }

let image_bits t = Option.map (fun i -> i.bits) (image t)
let in_image i c = Int64.logand c (Int64.lognot i.free) = i.fixed

(* Is some image value in [lo, hi] and outside [holes]? [None] when the
   image is not contiguous and the range neither a point nor everything. *)
let hits i ~lo ~hi ~max holes =
  let inside c = ucmp lo c <= 0 && ucmp c hi <= 0 && in_image i c in
  let n =
    Int64.of_int
      (List.length (List.sort_uniq compare (List.filter inside holes)))
  in
  if ucmp lo hi > 0 then Some false
  else if lo = hi then Some (in_image i lo && n = 0L)
  else if Int64.logand i.free (Int64.succ i.free) = 0L then
    (* variables in the low bits: the image is [fixed, fixed + free] *)
    let lo = umax lo i.fixed and hi = umin hi (Int64.logor i.fixed i.free) in
    Some (ucmp lo hi <= 0 && ucmp (Int64.sub hi lo) n >= 0)
  else if lo = 0L && hi = max then
    Some
      (i.bits >= 63 || ucmp (Int64.pred (Int64.shift_left 1L i.bits)) n >= 0)
  else None

(* --- decide -------------------------------------------------------------- *)

let base_of = function Range (b, _, _) | Hole (b, _) -> Some b | Never -> None

let summary max atoms =
  List.fold_left
    (fun (lo, hi, holes) -> function
      | Range (_, l, h) -> (umax lo l, umin hi h, holes)
      | Hole (_, c) -> (lo, hi, c :: holes)
      | Never -> (1L, 0L, holes))
    (0L, max, []) atoms

let decide ~sat cond =
  let rec exact acc = function
    | [] -> Some acc
    | t :: ts -> (
        match atoms t with a, true -> exact (acc @ a) ts | _, false -> None)
  in
  let ( let* ) = Option.bind in
  let* ca = exact [] [ cond ] in
  let* sa = exact [] sat in
  if List.exists (function Never -> true | _ -> false) (ca @ sa) then
    Some false
  else
    match List.filter_map base_of (ca @ sa) with
    | [] -> Some true
    | b :: bs when List.for_all (Term.equal b) bs -> (
        let max = Bv.value (Bv.ones (Term.width_of b)) in
        match summary max sa with
        | e, e', _ when e = e' ->
            (* [sat] is satisfiable and pins the base to [e] *)
            let lo, hi, holes = summary max ca in
            Some (ucmp lo e <= 0 && ucmp e hi <= 0 && not (List.mem e holes))
        | _ ->
            let lo, hi, holes = summary max (ca @ sa) in
            let* i = image b in
            hits i ~lo ~hi ~max holes)
    | _ -> None

(* --- cone ---------------------------------------------------------------- *)

let cone ~seed terms =
  match terms with
  | [] -> []
  | _ ->
      let module IS = Set.Make (Int) in
      let conj = Array.of_list terms in
      let n = Array.length conj in
      let ids = Array.map Term.var_ids conj in
      let selected = Array.make n false in
      let seen = ref (IS.of_list (Term.var_ids seed)) in
      let changed = ref true in
      while !changed do
        changed := false;
        for k = 0 to n - 1 do
          if
            (not selected.(k))
            && List.exists (fun id -> IS.mem id !seen) ids.(k)
          then begin
            selected.(k) <- true;
            changed := true;
            seen := List.fold_left (fun s id -> IS.add id s) !seen ids.(k)
          end
        done
      done;
      List.filteri (fun k _ -> selected.(k)) terms
