(* Alcotest pads each row to the longest suite name (14 characters,
   "ndtree-unified") and cuts a case name that does not fit 80 columns.
   A longer or shorter longest name moves that cut, and so changes the
   printed name of every cut case. *)
let () =
  Alcotest.run "prtree-repro"
    [
      ("util", Test_util.suite);
      ("geom", Test_geom.suite);
      ("storage", Test_storage.suite);
      ("extsort", Test_extsort.suite);
      ("hilbert", Test_hilbert.suite);
      ("rtree", Test_rtree.suite);
      ("dynamic", Test_dynamic.suite);
      ("prtree", Test_prtree.suite);
      ("ext", Test_ext.suite);
      ("ndtree", Test_ndtree.suite);
      ("ndtree-unified", Test_ndtree.unified_suite);
      ("metrics", Test_metrics.suite);
      ("kdbtree", Test_kdbtree.suite);
      ("features", Test_features.suite);
      ("robustness", Test_robustness.suite);
      ("adversarial", Test_adversarial.suite);
      ("differential", Test_differential.suite);
      ("faults", Test_faults.suite);
      ("crash", Test_crash.suite);
      ("audit", Test_audit.suite);
      ("obs", Test_obs.suite);
      ("obs-domains", Test_obs_domains.suite);
      ("paper-scale", Test_paper_scale.suite);
      ("workloads", Test_workloads.suite);
      ("qexec", Test_qexec.suite);
      ("resilience", Test_resilience.suite);
      ("mvcc", Test_mvcc.suite);
      ("mmap", Test_mmap.suite);
      ("serve", Test_serve.suite);
      ("ingest", Test_ingest.suite);
      ("pseudo-kernel", Test_pseudo_kernel.suite);
    ]
