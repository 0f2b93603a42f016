(* The domain count that fills this machine: at most 8, at least 1, and
   one core left for everything else.  The batched query executor takes
   it as its default job count. *)

let default_domains () = max 1 (min 8 (Domain.recommended_domain_count () - 1))
