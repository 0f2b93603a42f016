(** The default degree of multicore parallelism (OCaml 5 domains). *)

val default_domains : unit -> int
(** [min 8 (recommended - 1)], at least 1: the default job count of the
    batched query executor. *)
