//! Property-based tests over the scenario grammar: every program the
//! sampler can draw must compile, run on both the sequential and the
//! sharded engine without errors, and replay bit-identically.

use proptest::prelude::*;

use psn_core::{run_execution, ExecutionConfig};
use psn_lang::{compile, render, sample_source, CompiledScenario};

fn compiled(seed: u64) -> CompiledScenario {
    let source = sample_source(seed);
    match compile(&source) {
        Ok(c) => c,
        Err(diags) => panic!(
            "sampled scenario (seed {seed}) failed to compile:\n{}",
            render(&source, "<sampled>", &diags)
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any sampled program compiles and runs cleanly on the sequential
    /// engine and at 4 shards (the sampler guarantees the nonzero delay
    /// floor sharding needs).
    #[test]
    fn sampled_scenarios_compile_and_run(seed in 0u64..5_000) {
        // The sampler itself is a pure function of the seed.
        prop_assert_eq!(sample_source(seed), sample_source(seed));

        let c = compiled(seed);
        prop_assert!(c.scenario.num_processes() > 0);
        prop_assert!(!c.predicates.is_empty());

        let seq = run_execution(&c.scenario, &c.config);
        let sharded_cfg = ExecutionConfig { shards: 4, ..c.config.clone() };
        let sharded = run_execution(&c.scenario, &sharded_cfg);

        // The sharded run is not merely error-free: it lands on the same
        // trace as the sequential one.
        prop_assert_eq!(seq.sim.records(), sharded.sim.records());
        prop_assert_eq!(&seq.net, &sharded.net);
        prop_assert_eq!(seq.ended_at, sharded.ended_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Compile → run → replay is deterministic per seed: two independent
    /// compilations of the same sampled source produce configurations
    /// whose runs are bit-identical.
    #[test]
    fn compile_run_replay_deterministic(seed in 0u64..5_000) {
        let a = compiled(seed);
        let b = compiled(seed);
        prop_assert_eq!(&a.name, &b.name);
        prop_assert_eq!(a.seed, b.seed);

        let run_a = run_execution(&a.scenario, &a.config);
        let run_b = run_execution(&b.scenario, &b.config);
        prop_assert_eq!(run_a.sim.records(), run_b.sim.records());
        prop_assert_eq!(&run_a.net, &run_b.net);
        prop_assert_eq!(&run_a.faults, &run_b.faults);
        prop_assert_eq!(run_a.ended_at, run_b.ended_at);
    }
}
