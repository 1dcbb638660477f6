let () =
  Alcotest.run "ilplimits"
    [ ("stdx", Test_stdx.suite);
      ("pool", Test_pool.suite);
      ("risc", Test_risc.suite);
      ("asm", Test_asm.suite);
      ("vm", Test_vm.suite);
      ("minic", Test_minic.suite);
      ("codegen", Test_codegen.suite);
      ("cfg", Test_cfg.suite);
      ("dataflow", Test_dataflow.suite);
      ("verify", Test_verify.suite);
      ("sccp", Test_sccp.suite);
      ("engine", Test_engine.suite);
      ("predict", Test_predict.suite);
      ("analyze", Test_analyze.suite);
      ("reference", Test_ref.suite);
      ("machine", Test_machine.suite);
      ("pipeline", Test_pipeline.suite);
      ("segmented", Test_segmented.suite);
      ("properties", Test_props.suite);
      ("estimate", Test_estimate.suite);
      ("workloads", Test_workloads.suite);
      ("fault", Test_fault.suite);
      ("obs", Test_obs.suite);
      ("report", Test_report.suite);
      ("serve", Test_serve.suite) ]
