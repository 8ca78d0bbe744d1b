(** Achilles: end-to-end Trojan-message analysis.

    Ties the phases together: client predicate extraction, preprocessing
    (the differentFrom matrix), and the incremental server search. This is
    the entry point a user of the library calls; the phase modules remain
    available for finer control. *)

open Achilles_symvm

type timing = {
  client_extraction : float; (* seconds *)
  preprocessing : float;
  server_analysis : float;
}

type analysis = {
  client : Predicate.client_predicate;
  client_stats : Client_extract.stats;
  different_from : Different_from.t option;
  different_from_stats : Different_from.stats option;
  report : Search.report;
  timing : timing;
}

val prepare :
  search_config:Search.config ->
  ?client_interp:Interp.config ->
  layout:Layout.t ->
  clients:Ast.program list ->
  server:Ast.program ->
  unit ->
  Predicate.client_predicate
  * Client_extract.stats
  * Different_from.t option
  * Different_from.stats option
(** The front half of {!analyze}: client extraction (with the slice oracle
    installed on [client_interp] when the configuration enables slicing)
    and, when the configuration uses it, the differentFrom matrix. Every
    process of a distributed run calls this, so each derives the same
    inputs a single-process run searches. *)

val analyze :
  ?search_config:Search.config ->
  ?client_interp:Interp.config ->
  layout:Layout.t ->
  clients:Ast.program list ->
  server:Ast.program ->
  unit ->
  analysis
(** Run the full pipeline. The differentFrom matrix is only computed when
    the search configuration enables its use. *)

val trojans : analysis -> Search.trojan list
val pp_summary : Format.formatter -> analysis -> unit
