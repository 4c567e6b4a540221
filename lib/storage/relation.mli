(** In-memory materialized relations: a schema of qualified column
    names over exactly one stored representation, chosen when the
    relation is built — rows ({!make}), columns ({!of_cols}, one
    {!Column.t} per attribute) or a disk pager ({!paged}). The view a
    relation does not hold is built on each {!rows}/{!cols} call and
    never cached, so a relation never keeps two copies of its data. *)

open Relalg

type resolver
(** Precomputed attribute→position index over a schema. *)

val resolver : Attr.t list -> resolver

val resolve : resolver -> Attr.t -> int option
(** Column position: exact match first (last occurrence wins on
    duplicates), then a unique match on the bare column name. *)

val lookup_of_schema : Attr.t list -> Attr.t -> Value.t array -> Value.t
(** [lookup_of_schema schema] is an accessor over rows of [schema]
    suitable for [Pred.eval] / [Expr.eval] without materializing a
    relation; unknown attributes read as NULL. The index is built once,
    at partial application. *)

type t

val make : schema:Attr.t list -> rows:Value.t array array -> t
(** Build from rows, which become the stored representation. Raises [Invalid_argument] if some
    row's arity differs from the schema. *)

val of_cols : schema:Attr.t list -> card:int -> Column.t array -> t
(** Build from columns, which become the stored representation. [card] is the row count (needed explicitly for
    width-0 relations). Raises [Invalid_argument] on arity or
    cardinality mismatch. *)

val paged : schema:Attr.t list -> card:int -> load:(unit -> Column.t array) -> t
(** A disk-backed relation: [load ()] pages the full column set in (in
    schema order, each of length [card]). Every {!rows}/{!cols} access
    re-reads through [load], so the resident working set is only what
    operators materialize, not the base table. See {!Segment.relation}. *)

val is_paged : t -> bool

val empty : schema:Attr.t list -> t
val schema : t -> Attr.t list

val rows : t -> Value.t array array
(** The row view: the stored rows of a row relation, otherwise a fresh
    boxed copy built on every call (two calls return equal, distinct
    arrays). Treat the result as read-only. *)

val cols : t -> Column.t array
(** The column view: the stored columns of a column relation, otherwise
    built from the rows (or paged in) on every call. *)

val columnar : t -> t
(** The same relation stored column-major: a row relation is converted
    (its rows are not retained by the result); column and paged
    relations are returned as they are. {!Database.add} stores every
    relation this way. *)

val cardinality : t -> int

val find_index : t -> Attr.t -> int option
(** Column position: exact match first, then a unique match on the bare
    column name. *)

val lookup_fn : t -> Attr.t -> Value.t array -> Value.t
(** A caching accessor suitable for [Pred.eval] / [Expr.eval]; unknown
    attributes read as NULL. *)

val order_by : t -> (Attr.t * bool) list -> t
(** Stable sort by (attribute, descending?) keys; unknown attributes
    read as NULL and sort first. *)

val take : t -> int -> t
(** First [n] rows, in the relation's own representation. *)

val byte_size : t -> int
(** Total serialized size — what a SHIP of this relation moves. *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
val to_csv : t -> string
