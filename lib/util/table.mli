(** Aligned plain-text tables for benchmark output. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays the cells out in aligned columns
    (numeric-looking columns right-aligned) with a separator line under
    the header, and returns the result. *)

val print : header:string list -> string list list -> unit
(** [print] is [render] followed by [print_string]. *)
