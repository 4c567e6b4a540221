(** Execution engine selection.

    Two engines execute placed physical plans: the vectorized executor
    ({!Vector}, the default) and the tree-walking reference interpreter
    ({!Interp}). They are byte-identical on results, SHIP accounting,
    profiles and observability output (see [docs/EXECUTOR.md]). Select
    per session via [Cgqp.set_engine], per process via the [CGQP_ENGINE]
    environment variable, or per CLI invocation with [--engine]. *)

type t = Reference | Vector

val to_string : t -> string
(** ["reference"] / ["vector"]. *)

val of_string : string -> t option
(** Case-insensitive; recognizes ["reference"]/["interp"]/
    ["interpreter"] and ["vector"]/["vectorized"]. Anything else,
    ["compiled"] included, is [None]. *)

val default : unit -> t
(** The process default: [CGQP_ENGINE] if set (raising
    [Invalid_argument], naming the accepted values, on an unrecognized
    one), else {!Vector}. *)

val run :
  ?engine:t ->
  ?faults:Catalog.Network.Fault.schedule ->
  ?retry:Runtime.retry_policy ->
  ?budget:int ->
  network:Catalog.Network.t ->
  db:Storage.Database.t ->
  table_cols:(string -> string list) ->
  Pplan.t ->
  Runtime.result
(** Execute a plan on the chosen engine (default {!default}).
    Signature and semantics are those of {!Interp.run}. *)
