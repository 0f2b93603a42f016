(* The d-dimensional pseudo-tree adapter of the unified audit:
   [Prt_prtree.Pseudo]'s flattening into [Audit]'s neutral descriptors,
   on [Pseudo_nd]'s geometry.  Paged d-D trees need no adapter:
   [Rtree_nd.audit] runs [Audit.check] at their dimension. *)

let check_pseudo ?b ~dims t =
  Prt_prtree.Pseudo.audit_with (Pseudo_nd.geometry ~dims) ?b ~root:"pseudo-nd" t
