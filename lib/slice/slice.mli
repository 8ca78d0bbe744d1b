(** Static dependency slicing over the protocol DSL.

    The interpreter pays a full-path solver query for every symbolic branch,
    yet most server branches never depend on message bytes, and most of the
    ones that do only relate a handful of message bytes to constants. This
    module computes, once per program, what depends on what — and turns that
    into decisions the rest of the pipeline consumes:

    - {!analyze} runs a whole-program taint analysis from [Receive] sources
      through scalars, buffers and procedure calls, producing a branch
      census (which conditions are message-byte-tainted, and through which
      layout fields) and a per-field dependence summary (how many branches,
      state updates and sends each field can reach).
    - {!make_oracle} builds an {!Achilles_symvm.Interp.oracle}: branch
      feasibility answered from the variable-connected {e cone} of the path
      instead of the whole path, decided statically by
      {!Achilles_smt.Word.decide} where every conjunct is an atom chain on
      one base term, and otherwise by a memoized cone-restricted solver
      query. The word-level reasoning itself (atoms, images, cones) lives
      in {!Achilles_smt.Word}; this module owns only the taint analysis and
      the oracle's memo and counters.

    {b Soundness bar.} Slicing is a pure decision optimization: on clean
    (unbudgeted, fault-free) runs every verdict it produces coincides with
    the verdict of the full query it replaces, so report digests are
    byte-identical slice on or off, at any domain count. The taint analysis
    only over-approximates (joins, no strong updates, symbolic offsets
    spill to whole buffers), so "field reaches no branch" is a proof, never
    a guess. *)

open Achilles_symvm

val enabled : unit -> bool
(** Whether slicing is on. Defaults to [true]; the environment variable
    [ACHILLES_SLICE] (["0"], ["false"], ["off"], ["no"]) or {!set_enabled}
    turns it off — the [--no-slice] escape hatch reads this. *)

val set_enabled : bool -> unit

(** {1 Static taint analysis} *)

(** Message taint of one value: [Clean] — provably no message byte flows
    here; [Fields s] — only bytes of the named layout fields can; [Any] —
    message-tainted through bytes outside any declared field (or past the
    layout), so field attribution is unknown. *)
type taint = Clean | Fields of string list  (** sorted *) | Any

type branch_info = {
  branch_id : string;
      (** stable descriptor ["proc:kind#n"], [n] counting pre-order per
          statement kind per procedure — e.g. ["main:if#0"],
          ["check:switch#1"], ["main:while#0"] *)
  branch_taint : taint;  (** taint of the branch condition *)
}

type field_dep = {
  dep_field : string;
  dep_branches : int;  (** branch conditions this field can reach *)
  dep_updates : int;  (** global assignments / buffer stores it can reach *)
  dep_sends : int;  (** sends whose payload or destination it can reach *)
}

type summary = {
  program_name : string;
  branches : branch_info list;  (** pre-order, main first then procs *)
  field_deps : field_dep list;  (** layout order *)
  any_tainted_branch : bool;
      (** some branch condition has taint [Any]: field attribution is
          incomplete and per-field branch counts cannot be trusted as
          upper bounds *)
}

val analyze : layout:Layout.t -> Ast.program -> summary
(** Whole-program flow-insensitive monotone fixpoint: every [Receive]
    target byte is a source tainted with the layout field covering its
    offset ([Any] past the layout), assignments and stores propagate joins
    (symbolic offsets spill to the whole buffer, and the offset's own taint
    rides along — matching the interpreter's mux/ite encodings), procedure
    parameters join over all call sites and returns join back into every
    result variable. Runs under the [Obs] [Slice] phase. *)

val tainted : taint -> bool
(** [taint <> Clean]. *)

val mentions : taint -> string -> bool
(** May this taint include bytes of the named field? [Any] mentions every
    field. *)

val field_reaches_branch : summary -> string -> bool
(** Can any byte of the field flow into any branch condition? [false] is a
    static proof that no server path constraint will ever contain the
    field's message variables — the [Different_from] rows for such a field
    are never consulted by the search, so their pair checks can be skipped
    wholesale. Conservatively [true] for every field when
    [any_tainted_branch] is set. *)

val pp_summary : Format.formatter -> summary -> unit
(** Stable rendering (the golden-test format): the branch census with
    taints, then the per-field dependence table. *)

(** {1 The feasibility oracle} *)

val make_oracle : unit -> Interp.oracle
(** A fresh oracle (per run or per shard task — the memo table is not
    thread-safe and must not cross domains). Given a known-satisfiable
    [path] and a branch condition [cond], it:

    + restricts the path to the {e cone} ({!Achilles_smt.Word.cone}) — the
      transitive var-sharing closure of the path's conjuncts seeded from
      [cond]'s variables; since the rest of the path is satisfiable and
      shares no variable with [cond] or the cone,
      [SAT(path /\ cond) = SAT(cone /\ cond)];
    + decides atom chains over a single shared base term statically with
      {!Achilles_smt.Word.decide} (counter [slice.branch_skipped]): pinning,
      injective concatenation images and exact range-minus-holes counting.
      This is the field-level subsumption upgrade: only the constraints on
      the branch's own read set are consulted, and e.g. a switch case is
      killed by the preceding cases' disequalities, or a guard chain
      [x > a, x < b] decided, without any solver work;
    + otherwise answers with a scratch solver query over [cond :: cone]
      (counter [slice.cone_queries]), memoized on the alpha-canonical key
      of the cone (counter [slice.memo_hits]); [Unknown] degrades to
      [Feasible_unknown] and is not memoized.

    Verdicts coincide with the full-path query on clean runs — the digest
    invariance the search relies on. *)
