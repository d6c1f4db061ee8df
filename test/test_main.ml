(* Aggregates every suite into one alcotest executable. *)

let () =
  Alcotest.run "nestopt"
    (Suite_relalg.suites @ Suite_sql.suites @ Suite_storage.suites
    @ Suite_exec.suites @ Suite_optimizer.suites @ Suite_properties.suites
    @ Suite_workload.suites @ Suite_core.suites @ Suite_tree_trace.suites @ Suite_exhaustive.suites @ Suite_edge_cases.suites @ Suite_multilevel.suites
    @ Suite_operators.suites @ Suite_explain.suites @ Suite_lint.suites
    @ Suite_oracle.suites @ Suite_vectorized.suites @ Suite_batched.suites
    @ Suite_server.suites @ Suite_analysis.suites @ Suite_index.suites
    @ Suite_json.suites @ Suite_keyed_ja2.suites @ Suite_cost_goldens.suites
    @ Suite_nested_io.suites)
