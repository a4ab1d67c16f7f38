//! Network-plane message types.
//!
//! Three protocol messages flow through ⟨P, L⟩:
//!
//! - **strobes** — the control broadcasts of SSC1/SVC1;
//! - **reports** — a sensor telling the root P₀ about a sense event, so the
//!   root can detect global predicates ("a message send event s is
//!   triggered at a sensor/actuator process to communicate information
//!   about a relevant sensed event", §2.2);
//! - **actuation commands** — the root closing the loop ("if the predicate
//!   is satisfied, a message send event is also triggered to actuate").
//!
//! `WorldSense` is not a network message: it is the simulator injecting a
//! world-plane attribute change into the sensing process (the n event's
//! cause), bypassing delay/loss.

use serde::{Deserialize, Serialize};

use psn_clocks::ProcessId;
use psn_sim::engine::Message;
use psn_world::{AttrKey, AttrValue, WorldEventId};

use crate::bundle::{StampSet, StrobePayload};

/// A report of one sense event, sent sensor → root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The reporting process.
    pub process: ProcessId,
    /// Per-process sense counter (1-based): the index of this sense event
    /// among the process's sense events.
    pub sense_seq: usize,
    /// The attribute that changed.
    pub key: AttrKey,
    /// The sensed value.
    pub value: AttrValue,
    /// Timestamps of the **sense** event (what detectors reason over).
    pub stamps: StampSet,
    /// Timestamps of the **send** event (piggyback for the root's
    /// causality-based clocks, rules SC3/VC3).
    pub(crate) send_stamps: StampSet,
    /// Ground-truth id of the observed world event — scoring only.
    pub world_event: WorldEventId,
}

/// Everything that travels between actors in an execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetMsg {
    /// Simulator → sensor: a watched attribute changed (not a network
    /// message; injected without delay/loss).
    WorldSense {
        /// The attribute that changed.
        key: AttrKey,
        /// Its new value.
        value: AttrValue,
        /// Ground-truth world event id.
        world_event: WorldEventId,
    },
    /// A strobe broadcast (SSC1 + SVC1 payloads together; per-family byte
    /// accounting is analytic, see `psn-bench` E7). `origin`/`seq` identify
    /// the strobe for flood deduplication on multi-hop overlays — the
    /// protocol's System-wide_Broadcast must reach all of P even when L is
    /// not a full mesh.
    Strobe {
        /// The process that originated the strobe.
        origin: usize,
        /// The origin's strobe counter (dedup key with `origin`).
        seq: u64,
        /// The clock payloads.
        payload: StrobePayload,
    },
    /// Sensor → root report of a sense event. Boxed: a report carries two
    /// stamp sets, and every queue entry, channel slot and broadcast clone is
    /// as large as the enum's largest variant.
    Report(Box<Report>),
    /// Root → sensor actuation command. A computation message: it carries
    /// the root's send stamps so the sensor's actuate event is causally
    /// ordered after the detection (the §4.1 chain
    /// `e1@l1 → sense@l1 → … → actuate@l2 → e2@l2`).
    Actuate {
        /// The attribute to drive.
        key: AttrKey,
        /// The commanded value.
        command: AttrValue,
        /// The root's send-event stamps (piggyback, rules SC2/VC2).
        stamps: Box<StampSet>,
    },
}

// The engine moves a `NetMsg` by value through its heap, its shard rings and
// its journal: a variant that would grow the enum past this belongs in a box.
const _: () = assert!(std::mem::size_of::<NetMsg>() <= 128);

impl Message for NetMsg {
    fn size_bytes(&self) -> usize {
        match self {
            NetMsg::WorldSense { .. } => 0, // not a network message
            // Scalar strobe (8) + vector strobe (8n): both variants on one
            // simulated message. The integrity checksum rides in the link
            // layer's CRC and is not counted.
            NetMsg::Strobe { payload, .. } => 8 + 8 * payload.vector.len(),
            // Key + value + the two stamp sets (each: lamport 8 + vector 8n
            // + strobe scalar 8 + strobe vector 8n + physical 8 + synced 8).
            NetMsg::Report(r) => 16 + 2 * (32 + 16 * r.stamps.vector.len()),
            NetMsg::Actuate { stamps, .. } => 16 + 32 + 16 * stamps.vector.len(),
        }
    }

    /// Channel-fault corruption: garble a strobe's clock stamps, leaving
    /// its checksum stale so quarantining receivers can detect the damage.
    /// Other message kinds are assumed protected end-to-end (reports and
    /// actuation commands would be retransmitted by a real transport) and
    /// pass through unharmed.
    fn corrupt(&mut self, rng: &mut psn_sim::rng::RngStream) -> bool {
        let NetMsg::Strobe { payload, .. } = self else {
            return false;
        };
        // A large bit-flip-style bump: big enough to drag scalar-strobe
        // receivers far into the future (the E13 cascade), and to set one
        // vector component beyond anything legitimately assigned.
        let bump = rng.uniform_u64(1_000, 10_000);
        if payload.vector.is_empty() || rng.bernoulli(0.5) {
            payload.scalar.value += bump;
        } else {
            let k = rng.index(payload.vector.len());
            // The broadcast's other copies and the sender's logged stamp
            // share this buffer; `as_mut_slice` copies it before the write.
            payload.vector.as_mut_slice()[k] += bump;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_clocks::{PhysReading, ScalarStamp, VectorStamp};
    use psn_sim::time::SimTime;

    fn stamps(n: usize) -> StampSet {
        StampSet {
            lamport: ScalarStamp { value: 0, process: 0 },
            vector: VectorStamp::zero(n),
            strobe_scalar: ScalarStamp { value: 0, process: 0 },
            strobe_vector: VectorStamp::zero(n),
            physical: PhysReading(0),
            synced: PhysReading(0),
            truth: SimTime::ZERO,
        }
    }

    #[test]
    fn strobe_size_scales_with_n() {
        let s4 = NetMsg::Strobe {
            origin: 0,
            seq: 1,
            payload: StrobePayload::new(ScalarStamp { value: 1, process: 0 }, VectorStamp::zero(4)),
        };
        let s8 = NetMsg::Strobe {
            origin: 0,
            seq: 1,
            payload: StrobePayload::new(ScalarStamp { value: 1, process: 0 }, VectorStamp::zero(8)),
        };
        assert_eq!(s4.size_bytes(), 8 + 32);
        assert_eq!(s8.size_bytes(), 8 + 64);
    }

    #[test]
    fn corruption_garbles_strobes_detectably_and_spares_the_rest() {
        use psn_sim::engine::Message as _;
        let mut rng = psn_sim::rng::RngFactory::new(5).stream(0);
        for _ in 0..20 {
            let mut m = NetMsg::Strobe {
                origin: 0,
                seq: 1,
                payload: StrobePayload::new(
                    ScalarStamp { value: 3, process: 0 },
                    VectorStamp::from_slice(&[3, 1]),
                ),
            };
            assert!(m.corrupt(&mut rng));
            let NetMsg::Strobe { payload, .. } = &m else { unreachable!() };
            assert!(!payload.verify(), "checksum catches the garbled stamp");
            assert!(
                payload.scalar.value >= 1_000 || payload.vector.iter().any(|&c| c >= 1_000),
                "exactly one stamp took a large bump"
            );
        }
        let mut report = NetMsg::WorldSense {
            key: AttrKey::new(0, 0),
            value: AttrValue::Int(1),
            world_event: 0,
        };
        assert!(!report.corrupt(&mut rng), "only strobes are corruptible");
    }

    #[test]
    fn world_sense_is_free() {
        let m = NetMsg::WorldSense {
            key: AttrKey::new(0, 0),
            value: AttrValue::Int(1),
            world_event: 0,
        };
        assert_eq!(m.size_bytes(), 0);
    }

    #[test]
    fn report_size_includes_both_stamp_sets() {
        let r = NetMsg::Report(Box::new(Report {
            process: 0,
            sense_seq: 1,
            key: AttrKey::new(0, 0),
            value: AttrValue::Int(1),
            stamps: stamps(4),
            send_stamps: stamps(4),
            world_event: 0,
        }));
        assert_eq!(r.size_bytes(), 16 + 2 * (32 + 64));
    }
}
