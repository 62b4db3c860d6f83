//! `anchored-6k`: warm anchored 3-hop goals on a 6,000-fact path through
//! `Engine::evaluate_text`, single-threaded. Each goal's circuit has a
//! handful of gates, so the op is dominated by instance identity
//! (fingerprint, relation statistics), which is linear in the instance.
//!
//! One op evaluates one goal; the 16 goals are asked in turn.

use stuc::data::tid::TidInstance;
use stuc::lang::lower::program_instance;
use stuc::lang::parse_program;
use stuc::Engine;

use super::{
    anchor_of, close, closed_loop, end_to_end_result, repeat_setup, set_hit_ratios, traced_loop,
    OutForest, RunConfig, Stop, Timed, PROBE_EVERY, UNTRACED_SHARE,
};
use crate::inputs::{self, AnchoredInputs};
use crate::layers::{identity_us, replay_text};
use crate::report::{LayerValues, RunResult, Tally};
use crate::speed::{Kernel, Speedometer};
use crate::trace::Tracer;

struct State {
    engine: Engine,
    instance: TidInstance,
}

/// Builds the instance from the program text and evaluates every goal
/// cold.
fn setup(inputs: &AnchoredInputs) -> Result<(State, Vec<f64>), String> {
    let program = parse_program(&inputs.program).map_err(|e| e.to_string())?;
    let instance = program_instance(&program).map_err(|e| e.to_string())?;
    let engine = Engine::new();
    let mut cold = Vec::new();
    for goal in &inputs.goals {
        let outcome = engine
            .evaluate_text(&instance, goal)
            .map_err(|e| format!("cold {goal}: {e}"))?;
        cold.push(outcome.goals[0].probability);
    }
    Ok((State { engine, instance }, cold))
}

pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<RunResult, String> {
    let inputs = inputs::anchored(cfg.seed, &cfg.sizes);
    let mut tally = Tally::default();
    let mut speed = Speedometer::new(Kernel::Compute, PROBE_EVERY)?;
    let ((state, cold), setups) = repeat_setup(cfg.setups(), &mut speed, || setup(&inputs))?;
    let State { engine, instance } = state;

    // The closed form of every goal, read from the instance.
    let forest = OutForest::new(&instance)?;
    let expected: Vec<f64> = inputs
        .goals
        .iter()
        .map(|g| Ok(forest.hops(&instance, anchor_of(g)?, 3)))
        .collect::<Result<_, String>>()?;
    for (g, (&got, &want)) in cold.iter().zip(&expected).enumerate() {
        tally.check(close(got, want), || {
            format!("cold goal {g}: {got} != closed form {want}")
        });
    }

    let goals = &inputs.goals;
    let goal_of = |i: u64| (i as usize) % goals.len();
    let evaluate = |g: usize| {
        engine
            .evaluate_text(&instance, &goals[g])
            .map(|o| o.goals[0].probability)
            .map_err(|e| e.to_string())
    };
    let check = |g: usize, got: f64, tally: &mut Tally| {
        let want = expected[g];
        tally.check(close(got, want), || {
            format!("goal {g}: {got} != closed form {want}")
        });
    };
    let step = |i: u64, timed: &mut Timed, tally: &mut Tally| {
        let g = goal_of(i);
        let got = timed.time(|| evaluate(g))?;
        check(g, got, tally);
        Ok(())
    };

    if !cfg.trace {
        let stats = closed_loop(Stop::After(cfg.seconds), &mut tally, Some(&mut speed), step)?;
        let e2e = stats.end_to_end(setups);
        let summary = vec![format!("ops {} (one goal each)", stats.ops())];
        return end_to_end_result(e2e, &speed, tally, summary);
    }

    let mut layers = LayerValues::default();
    let before = engine.cache_stats();
    let untraced = closed_loop(
        Stop::After(cfg.seconds * UNTRACED_SHARE),
        &mut tally,
        None,
        step,
    )?;
    set_hit_ratios(&mut layers, &before, &engine.cache_stats());
    traced_loop(
        cfg.seconds * (1.0 - UNTRACED_SHARE),
        untraced.ops() as u64,
        tracer,
        &mut tally,
        |i, tracer, tally| {
            let g = goal_of(i);
            let (outcome, mut scope) = tracer.op(i, |_| engine.evaluate_text(&instance, &goals[g]));
            let outcome = outcome.map_err(|e| e.to_string())?;
            check(g, outcome.goals[0].probability, tally);
            for goal in &outcome.goals {
                scope.count("engine.identity_us", identity_us(&goal.report));
            }
            replay_text(&mut scope, &engine, &instance, &goals[g])?;
            tracer.finish(scope);
            Ok(())
        },
    );
    layers.from_samples(tracer.samples());
    super::set_overhead(&mut layers, &untraced.latencies_ms(), tracer.samples());
    Ok(RunResult {
        metrics: layers.metrics(),
        tally,
        summary: super::trace_summary(tracer.samples()),
    })
}
