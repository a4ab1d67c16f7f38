//! Workload inputs. Everything the program under test sees is generated here
//! from the seed; sizes are constants (`--quick` swaps in a tiny set that
//! runs the same code).

use psn_core::ExecutionConfig;
use psn_predicates::{Conjunct, Expr, Predicate};
use psn_sim::delay::DelayModel;
use psn_sim::time::{SimDuration, SimTime};
use psn_world::scenarios::exhibition::{self, ExhibitionParams};
use psn_world::{AttrKey, Scenario};

/// Mean stay inside the hall, all workloads.
const MEAN_STAY_S: u64 = 60;
/// Arrival rate of the 8-door replay hall.
const REPLAY_RATE_HZ: f64 = 8.0;

/// Fixed input sizes of one benchmark run, in sensed world events: every
/// seed gives a timeline of exactly this many events, so that neither job
/// time nor memory (buffers double at powers of two) depends on how many
/// arrivals a seed happens to draw.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Events of the 4-door, 40 Hz timeline `serve_burst` sends.
    pub burst_events: usize,
    /// Events of the 4-door, 40 Hz timeline `serve_paced` sends.
    pub paced_events: usize,
    /// Events of the 8-door, 8 Hz `batch_replay` scenario.
    pub replay_events: usize,
    /// Events of the trace `detect_fanout` scores.
    pub fanout_events: usize,
    /// Doors (= sensor processes) of the `batch_wide` scenario.
    pub wide_doors: usize,
    /// Events of the `batch_wide` scenario.
    pub wide_events: usize,
}

pub const FULL: Sizes = Sizes {
    burst_events: 45_000,
    paced_events: 18_000,
    replay_events: 14_000,
    fanout_events: 9_000,
    wide_doors: 1024,
    wide_events: 240,
};

pub const QUICK: Sizes = Sizes {
    burst_events: 4_000,
    paced_events: 2_000,
    replay_events: 2_000,
    fanout_events: 1_500,
    wide_doors: 64,
    wide_events: 120,
};

impl Sizes {
    pub fn is_quick(&self) -> bool {
        self.burst_events < FULL.burst_events
    }
}

/// Shards `batch_wide` runs on: the core count of the host the benchmark was
/// sized on, fixed so that runs on other hosts do the same work.
pub const WIDE_SHARDS: usize = 2;
/// Events per pipelined round on `serve_burst`.
pub const BURST_ROUND: usize = 32;
/// Offered rate on `serve_paced`, events per second.
pub const PACED_RATE_HZ: u64 = 4_000;
/// Dashboard reads per second beside the paced writer.
pub const READ_RATE_HZ: u64 = 200;
/// A paced round slower than this counts in `loadgen.over_limit_ratio`.
pub const PACED_LIMIT_US: f64 = 5_000.0;
/// Predicates of each kind `detect_fanout` scores.
pub const FANOUT_PER_KIND: usize = 16;
/// `StreamingModal::status()` cadence in the streaming passes, in reports.
pub const STATUS_EVERY: usize = 512;

/// A scenario with the execution config and the watched predicate it runs
/// under.
pub struct Input {
    pub scenario: Scenario,
    pub cfg: ExecutionConfig,
    pub predicate: Predicate,
    /// The detectors' hold-back: 2Δ (+1 ns for the batch streams, as the
    /// repo's own callers use).
    pub hold_back: SimDuration,
}

impl Input {
    pub fn doors(&self) -> usize {
        self.scenario.num_processes()
    }
}

fn hall(doors: usize, rate_hz: f64, events: usize, seed: u64) -> (Scenario, Predicate) {
    // The watched threshold is the hall's steady-state mean occupancy, so
    // the predicate keeps crossing it once the hall has filled.
    let capacity = (rate_hz * MEAN_STAY_S as f64) as i64;
    // Arrivals and, a mean stay later, as many departures: at most 2·rate
    // events a second. Generate with room to spare, keep the first `events`.
    let mut sim_s = MEAN_STAY_S + (events as f64 / (2.0 * rate_hz) * 1.3) as u64;
    loop {
        let params = ExhibitionParams {
            doors,
            arrival_rate_hz: rate_hz,
            mean_stay: SimDuration::from_secs(MEAN_STAY_S),
            duration: SimTime::from_secs(sim_s),
            capacity,
        };
        let mut scenario = exhibition::generate(&params, seed);
        if scenario.timeline.len() >= events {
            scenario.timeline.events.truncate(events);
            return (scenario, Predicate::occupancy_over(doors, capacity));
        }
        sim_s *= 2;
    }
}

/// The gateway timeline of the serve workloads: 4 doors, 40 Hz arrivals,
/// the server's default Δ = 100 ms and 200 ms hold-back.
pub fn serve_timeline(events: usize, seed: u64) -> Input {
    let (scenario, predicate) = hall(4, 40.0, events, seed);
    Input {
        scenario,
        cfg: ExecutionConfig::default(),
        predicate,
        hold_back: SimDuration::from_millis(200),
    }
}

/// The researcher's replay: 8 doors, 8 Hz, Δ = 300 ms.
pub fn replay(events: usize, seed: u64) -> Input {
    let (scenario, predicate) = hall(8, REPLAY_RATE_HZ, events, seed);
    Input {
        scenario,
        cfg: ExecutionConfig {
            delay: DelayModel::delta(SimDuration::from_millis(300)),
            ..Default::default()
        },
        predicate,
        hold_back: SimDuration::from_millis(601),
    }
}

/// Seed of the arrival instants every `batch_wide` timeline is laid on.
const WIDE_TIMING_SEED: u64 = 0;

/// The wide hall: `doors` + 1 actors, 20 Hz, Δ ∈ [40, 240] ms (the 40 ms
/// floor is the sharded driver's lookahead).
///
/// Which doors people use comes from `seed`; *when* the events happen comes
/// from one fixed Poisson draw. Every event here is a broadcast of
/// `doors`-wide vectors to `doors` processes, ~8 MB in flight for up to Δ, so
/// the job's peak memory follows the densest burst of the timeline: with the
/// instants drawn per seed it ranged from 193 to 269 MB over ten seeds.
pub fn wide(doors: usize, events: usize, shards: usize, seed: u64) -> Input {
    let (mut scenario, predicate) = hall(doors, 20.0, events, seed);
    let (instants, _) = hall(doors, 20.0, events, WIDE_TIMING_SEED);
    for (e, at) in scenario.timeline.events.iter_mut().zip(&instants.timeline.events) {
        e.at = at.at;
    }
    Input {
        scenario,
        cfg: ExecutionConfig {
            delay: DelayModel::DeltaBounded {
                min: SimDuration::from_millis(40),
                max: SimDuration::from_millis(240),
            },
            shards,
            ..Default::default()
        },
        predicate,
        hold_back: SimDuration::from_millis(481),
    }
}

/// The 32 predicates `detect_fanout` scores over one replay trace: 16
/// relational occupancy thresholds around the steady-state mean, and 16
/// conjunctive predicates over pairs of doors' net flow.
pub fn fanout_predicates(doors: usize) -> Vec<Predicate> {
    let mean = (REPLAY_RATE_HZ * MEAN_STAY_S as f64) as i64;
    let relational = (0..FANOUT_PER_KIND as i64)
        .map(|k| Predicate::occupancy_over(doors, mean - 2 * FANOUT_PER_KIND as i64 + 4 * k));
    let net_flow_over = |door: usize, k: i64| Conjunct {
        process: door,
        expr: Expr::var(AttrKey::new(door, exhibition::ATTR_X))
            .sub(Expr::var(AttrKey::new(door, exhibition::ATTR_Y)))
            .gt(Expr::int(k)),
    };
    let conjunctive = (0..FANOUT_PER_KIND).map(|k| {
        let (a, b) = (k % doors, (k + 3) % doors);
        let threshold = (k / doors) as i64 * 4 - 2;
        Predicate::Conjunctive(vec![net_flow_over(a, threshold), net_flow_over(b, threshold)])
    });
    relational.chain(conjunctive).collect()
}
