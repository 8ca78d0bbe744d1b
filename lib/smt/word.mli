(** Word-level reasoning over terms compared against constants.

    Server path constraints over message bytes are mostly atoms of the form
    "field term vs constant" on independent fields. This module is the one
    place that reads that structure:

    - {e atoms}: a conjunct (through [Not] and [And]) becomes per-base
      constraints, [base ∈ [lo, hi]] (unsigned) or [base <> c], where the
      base is any term compared against a constant;
    - {e images}: a base that is a concatenation of constants and
      pairwise-distinct variables has a known value set — an injective
      image of [2^k] values, contiguous when the variables sit in the low
      bits;
    - {e cone}: the order-preserving var-sharing closure of a conjunction.

    All arithmetic is unsigned over the full 64 bits. *)

type range = { lo : int64; hi : int64 }
(** Unsigned inclusive range. *)

val bounds : Term.t list -> (Term.t * range) list option
(** Per-base ranges of the conjunction after tightening each range's edges
    against the base's disequalities, or [None] when some base's range
    minus its holes is empty — the conjunction is then unsatisfiable.
    Sound for any base, since a term's value lies inside its width; parts
    that are not atoms are ignored. Bases with disequalities but no range
    atom are omitted. *)

val decide : sat:Term.t list -> Term.t -> bool option
(** [decide ~sat cond] is the exact satisfiability of [cond /\ sat], given
    that [sat] is satisfiable, when every conjunct is an atom conjunction
    over one shared base: [sat] pinning the base to a value decides [cond]
    by evaluation; otherwise the base's image, clamped to the range and
    minus the holes, is counted. [None] means "not decided here". *)

val parts : Term.t -> Term.t list
(** The leaves of the term's concatenation tree, high bits first; [[t]]
    when [t] is not a concatenation. *)

val image_bits : Term.t -> int option
(** [Some k] when the term is a concatenation of constants and
    pairwise-distinct variables, so its image has exactly [2^k] values
    ([k] = total variable width; plain and zero-extended variables
    qualify). *)

val cone : seed:Term.t -> Term.t list -> Term.t list
(** The conjuncts transitively sharing a variable with [seed], in their
    original order. When the whole conjunction is satisfiable, the rest
    shares no variable with [seed] or the cone, so
    [SAT(terms /\ seed) = SAT(cone /\ seed)]. *)
