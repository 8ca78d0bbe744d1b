(** The custom under-approximate negate operator (§3.2).

    [negate(pathC)] describes messages that cannot be generated on client
    path [pathC]. It is computed per message field as a disjunction:

    - a field whose client-side value is a concrete constant [C] contributes
      "server field <> C";
    - a field holding an expression over symbolic inputs contributes
      "server field = renamed-expression AND (disjunction of the negated
      path constraints influencing those inputs)", with all client
      variables renamed fresh so each disjunct quantifies independently;
    - a symbolic field with no influencing constraints is abandoned
      (contributes nothing) — the under-approximation of §4.2.

    Optionally each disjunct is checked for overlap against the original
    client path predicate and discarded when a common solution exists,
    which removes negate-induced false positives (§4.1). *)

open Achilles_smt
open Achilles_symvm

val negate_field :
  layout:Layout.t ->
  target:Term.t ->
  Predicate.client_path ->
  string ->
  Term.t option
(** Negation of one field, phrased over [target] (the server-side term for
    that field's value). [None] when the field is abandoned. *)

val negate_path :
  ?check_overlap:bool ->
  ?mask:string list ->
  layout:Layout.t ->
  server_vars:Term.var array ->
  Predicate.client_path ->
  Term.t
(** The full per-path negation: disjunction of the per-field negations over
    the server's symbolic message bytes. [Term.fls] when every field was
    abandoned or discarded (the most conservative answer: nothing can be
    proven un-generable on this path). [check_overlap] defaults to [true]. *)
