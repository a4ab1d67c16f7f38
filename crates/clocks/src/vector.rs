//! Mattern/Fidge causality-based vector clocks (paper §4.2.1, rules VC1–VC3).
//!
//! ```text
//! VC1. When process i executes (senses) a relevant internal event:
//!        Cᵢ[i] = Cᵢ[i] + 1
//! VC2. When process i executes a send event to send message M:
//!        Cᵢ[i] = Cᵢ[i] + 1;  Send M(Cᵢ)
//! VC3. When process i receives a vector T piggybacked on a message:
//!        ∀k: Cᵢ[k] = max(Cᵢ[k], T[k]);  Cᵢ[i] = Cᵢ[i] + 1
//! ```
//!
//! Vector time is *strongly consistent*: the partial order on timestamps is
//! isomorphic to the causality partial order on events, which is what makes
//! consistent-cut tests and `Possibly`/`Definitely` detection exact.
//!
//! A stamp of at most `INLINE_COMPONENTS` components is stored in-struct;
//! a wider one is one reference-counted buffer that clones share and the
//! first write through a shared stamp copies. Reading a clock, broadcasting
//! a strobe and logging an event are therefore O(1) in n; the protocol's
//! O(n) per receiver is the VC3/SVC2 merge itself.

use std::hash::{Hash, Hasher};
use std::ops::{Index, IndexMut};
use std::sync::Arc;

use serde::{Deserialize, Error, Serialize, Sink, Source};

use crate::traits::{Causality, LogicalClock, ProcessId, Timestamp};

/// Stamps with at most this many components are stored in-struct; larger
/// stamps spill to one shared heap buffer. The root is in P, so a world of
/// `d` sensors stamps `d + 1` components: up to 7 sensors stay
/// allocation-free, and an 8-door hall (9 wide) already spills, as do
/// E7/A3's n = 64 and E14's n = 1025 strobe vectors.
pub(crate) const INLINE_COMPONENTS: usize = 8;

/// Storage for a vector timestamp: inline array up to
/// [`INLINE_COMPONENTS`], a shared copy-on-write buffer above.
#[derive(Debug, Clone)]
enum Repr {
    Inline { len: u8, buf: [u64; INLINE_COMPONENTS] },
    Spilled(Arc<[u64]>),
}

/// A vector timestamp over `n` processes.
///
/// Components live in-struct for `n ≤ 8` (no heap allocation on
/// construction, clone, or merge). Above that they live in one
/// reference-counted buffer: a clone — a strobe's broadcast fan-out, a
/// clock read into the log, an actor checkpoint — shares it, and the first
/// write through a stamp whose buffer is shared copies it
/// ([`VectorStamp::as_mut_slice`]). A clock that has handed out a stamp
/// therefore pays one O(n) copy at its next tick or merge, and a stamp
/// nobody writes to is never copied at all. All observable behaviour —
/// comparison, hashing, serialization — depends only on the component
/// slice, never on which representation holds it or who else shares it.
#[derive(Debug, Clone)]
pub struct VectorStamp(Repr);

impl VectorStamp {
    /// The all-zero stamp for `n` processes.
    pub fn zero(n: usize) -> Self {
        if n <= INLINE_COMPONENTS {
            VectorStamp(Repr::Inline { len: n as u8, buf: [0; INLINE_COMPONENTS] })
        } else {
            VectorStamp(Repr::Spilled(vec![0; n].into()))
        }
    }

    /// A stamp with the given components.
    pub fn from_slice(v: &[u64]) -> Self {
        if v.len() <= INLINE_COMPONENTS {
            let mut buf = [0; INLINE_COMPONENTS];
            buf[..v.len()].copy_from_slice(v);
            VectorStamp(Repr::Inline { len: v.len() as u8, buf })
        } else {
            VectorStamp(Repr::Spilled(v.into()))
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled(v) => v.len(),
        }
    }

    /// True if the stamp has no components.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The components as a slice.
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// The components as a mutable slice. Every mutator goes through here:
    /// a spilled buffer that other stamps share is copied first, so a write
    /// is never visible through another stamp.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Spilled(v) => Arc::make_mut(v),
        }
    }

    /// Iterate over the components.
    pub fn iter(&self) -> std::slice::Iter<'_, u64> {
        self.as_slice().iter()
    }

    /// Copy the components into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u64> {
        self.as_slice().to_vec()
    }

    /// Component access.
    pub fn get(&self, k: ProcessId) -> u64 {
        self.as_slice()[k]
    }

    /// Increment component `k` (the VC1/VC2/SVC1 own-component tick).
    #[inline]
    pub fn tick(&mut self, k: ProcessId) {
        self.as_mut_slice()[k] += 1;
    }

    /// Componentwise `self[k] ≤ other[k]` for all k.
    #[inline]
    pub fn le(&self, other: &VectorStamp) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).all(|(x, y)| x <= y)
    }

    /// Strict happened-before: `self ≤ other` and `self ≠ other`.
    ///
    /// Single fused pass: tracks strictness while testing ≤, instead of a ≤
    /// sweep followed by an equality sweep.
    #[inline]
    pub fn lt(&self, other: &VectorStamp) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        debug_assert_eq!(a.len(), b.len());
        let mut strict = false;
        for (x, y) in a.iter().zip(b) {
            if x > y {
                return false;
            }
            strict |= x < y;
        }
        strict
    }

    /// Neither `self ≤ other` nor `other ≤ self`.
    ///
    /// Single fused pass over both directions, short-circuiting as soon as
    /// a strict disagreement is seen both ways.
    #[inline]
    pub fn concurrent(&self, other: &VectorStamp) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        debug_assert_eq!(a.len(), b.len());
        let mut a_gt = false;
        let mut b_gt = false;
        for (x, y) in a.iter().zip(b) {
            a_gt |= x > y;
            b_gt |= y > x;
            if a_gt && b_gt {
                return true;
            }
        }
        false
    }

    /// Componentwise maximum, in place.
    #[inline]
    #[allow(unsafe_code)]
    pub fn merge_from(&mut self, other: &VectorStamp) {
        let b = other.as_slice();
        let a = self.as_mut_slice();
        assert_eq!(a.len(), b.len(), "vector stamps must have equal arity");
        #[cfg(target_arch = "x86_64")]
        if a.len() >= 8 {
            if std::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was just verified at runtime.
                unsafe { merge_max_avx512(a, b) };
                return;
            }
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe { merge_max_avx2(a, b) };
                return;
            }
        }
        merge_max_scalar(a, b);
    }

    /// The componentwise maximum of two stamps.
    pub fn join(&self, other: &VectorStamp) -> VectorStamp {
        let mut out = self.clone();
        out.merge_from(other);
        out
    }
}

/// Componentwise unsigned max, one component at a time: the definition the
/// SIMD kernels below must reproduce bit for bit.
fn merge_max_scalar(a: &mut [u64], b: &[u64]) {
    for i in 0..a.len() {
        if b[i] > a[i] {
            a[i] = b[i];
        }
    }
}

/// Componentwise unsigned max over 8-lane `u64` vectors, using the native
/// unsigned max AVX-512F provides (`vpmaxuq`). Exactly the scalar loop's
/// result, so runs stay bit-identical across CPUs.
///
/// # Safety
/// The caller must ensure the running CPU supports AVX-512F; slices may
/// have any (equal) length and alignment.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
unsafe fn merge_max_avx512(a: &mut [u64], b: &[u64]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut i = 0;
    while i + 8 <= n {
        let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
        let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
        _mm512_storeu_si512(a.as_mut_ptr().add(i) as *mut _, _mm512_max_epu64(va, vb));
        i += 8;
    }
    while i < n {
        if b[i] > a[i] {
            a[i] = b[i];
        }
        i += 1;
    }
}

/// Componentwise unsigned max over 4-lane `u64` vectors. AVX2 has no
/// unsigned 64-bit compare, so both operands are sign-biased and compared
/// signed — a standard identity (`x >u y  ⇔  x ^ MIN >s y ^ MIN`). The
/// result is exactly the scalar loop's, so representations and runs stay
/// bit-identical whether or not the CPU has AVX2.
///
/// # Safety
/// The caller must ensure the running CPU supports AVX2; slices may have
/// any (equal) length and alignment.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn merge_max_avx2(a: &mut [u64], b: &[u64]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let sign = _mm256_set1_epi64x(i64::MIN);
    let mut i = 0;
    while i + 4 <= n {
        let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
        let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
        let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(vb, sign), _mm256_xor_si256(va, sign));
        let merged = _mm256_blendv_epi8(va, vb, gt);
        _mm256_storeu_si256(a.as_mut_ptr().add(i) as *mut __m256i, merged);
        i += 4;
    }
    while i < n {
        if b[i] > a[i] {
            a[i] = b[i];
        }
        i += 1;
    }
}

#[cfg(test)]
impl VectorStamp {
    /// A stamp forced onto the heap regardless of arity, so tests can check
    /// that inline and spilled storage of the same components are
    /// observationally identical.
    pub(crate) fn spilled(v: Vec<u64>) -> Self {
        VectorStamp(Repr::Spilled(v.into()))
    }

    /// True if the components are stored in-struct (n ≤ 8 and not
    /// explicitly spilled).
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl From<Vec<u64>> for VectorStamp {
    fn from(v: Vec<u64>) -> Self {
        VectorStamp::from_slice(&v)
    }
}

impl Index<usize> for VectorStamp {
    type Output = u64;
    #[inline]
    fn index(&self, k: usize) -> &u64 {
        &self.as_slice()[k]
    }
}

impl IndexMut<usize> for VectorStamp {
    #[inline]
    fn index_mut(&mut self, k: usize) -> &mut u64 {
        &mut self.as_mut_slice()[k]
    }
}

impl<'a> IntoIterator for &'a VectorStamp {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

// Equality, hashing, and serialization go through the component slice, so
// an inline stamp and a spilled stamp with the same components are fully
// interchangeable (same Eq, same Hash, same JSON).
impl PartialEq for VectorStamp {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for VectorStamp {}

impl Hash for VectorStamp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Serialize for VectorStamp {
    fn serialize<S: Sink>(&self, s: &mut S) {
        self.as_slice().serialize(s)
    }
}

impl Deserialize for VectorStamp {
    fn deserialize<S: Source>(src: &mut S) -> Result<Self, Error> {
        Vec::<u64>::deserialize(src).map(VectorStamp::from)
    }
}

impl Timestamp for VectorStamp {
    /// Fused single-pass classification: computes both direction flags in
    /// one sweep (short-circuiting to `Concurrent`) instead of an equality
    /// pass plus up to two ≤ passes.
    fn causality(&self, other: &Self) -> Causality {
        let (a, b) = (self.as_slice(), other.as_slice());
        debug_assert_eq!(a.len(), b.len());
        let mut a_gt = false;
        let mut b_gt = false;
        for (x, y) in a.iter().zip(b) {
            a_gt |= x > y;
            b_gt |= y > x;
            if a_gt && b_gt {
                return Causality::Concurrent;
            }
        }
        match (a_gt, b_gt) {
            (false, false) => Causality::Equal,
            (false, true) => Causality::Before,
            (true, false) => Causality::After,
            (true, true) => unreachable!("short-circuited above"),
        }
    }

    fn wire_size(&self) -> usize {
        8 * self.len() // n u64 components
    }
}

/// A Mattern/Fidge vector clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorClock {
    id: ProcessId,
    v: VectorStamp,
}

impl VectorClock {
    /// A clock for process `id` in a system of `n` processes.
    pub fn new(id: ProcessId, n: usize) -> Self {
        assert!(id < n, "process id {id} out of range for n={n}");
        VectorClock { id, v: VectorStamp::zero(n) }
    }

    /// The owner process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Merge `stamp` into the clock **without ticking** — the
    /// crash-recovery re-prime path (vector merge-catch-up): a restarted
    /// process replays its durable log and absorbs the last stamp it had
    /// assigned, so post-recovery events stay causally after pre-crash ones.
    pub fn prime(&mut self, stamp: &VectorStamp) {
        self.v.merge_from(stamp);
    }
}

impl LogicalClock for VectorClock {
    type Stamp = VectorStamp;

    /// VC1.
    fn on_local_event(&mut self) -> VectorStamp {
        self.v.tick(self.id);
        self.v.clone()
    }

    /// VC2.
    fn on_send(&mut self) -> VectorStamp {
        self.v.tick(self.id);
        self.v.clone()
    }

    /// VC3.
    fn on_receive(&mut self, stamp: &VectorStamp) -> VectorStamp {
        self.v.merge_from(stamp);
        self.v.tick(self.id);
        self.v.clone()
    }

    fn current(&self) -> VectorStamp {
        self.v.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn vc1_ticks_own_component_only() {
        let mut c = VectorClock::new(1, 3);
        let s = c.on_local_event();
        assert_eq!(s.as_slice(), [0, 1, 0]);
        let s = c.on_local_event();
        assert_eq!(s.as_slice(), [0, 2, 0]);
    }

    #[test]
    fn vc3_merges_and_ticks() {
        let mut c = VectorClock::new(2, 3);
        c.on_local_event(); // [0,0,1]
        let incoming = VectorStamp::from_slice(&[5, 2, 0]);
        let s = c.on_receive(&incoming);
        assert_eq!(s.as_slice(), [5, 2, 2], "max componentwise, then own +1");
    }

    #[test]
    fn prime_merges_without_ticking() {
        let mut c = VectorClock::new(1, 3);
        c.prime(&VectorStamp::from_slice(&[4, 7, 2]));
        assert_eq!(c.current().as_slice(), [4, 7, 2], "no tick on prime");
        let s = c.on_local_event();
        assert_eq!(s.as_slice(), [4, 8, 2], "next event is causally after the replayed stamp");
    }

    #[test]
    fn message_chain_creates_happened_before() {
        let mut p0 = VectorClock::new(0, 2);
        let mut p1 = VectorClock::new(1, 2);
        let e = p0.on_send();
        let f = p1.on_receive(&e);
        assert_eq!(e.causality(&f), Causality::Before);
        assert_eq!(f.causality(&e), Causality::After);
    }

    #[test]
    fn independent_events_are_concurrent() {
        let mut p0 = VectorClock::new(0, 2);
        let mut p1 = VectorClock::new(1, 2);
        let e = p0.on_local_event();
        let f = p1.on_local_event();
        assert_eq!(e.causality(&f), Causality::Concurrent);
        assert!(e.concurrent(&f));
    }

    #[test]
    fn strong_consistency_through_three_processes() {
        // P0 --m1--> P1 --m2--> P2: P0's event precedes P2's receive.
        let mut p0 = VectorClock::new(0, 3);
        let mut p1 = VectorClock::new(1, 3);
        let mut p2 = VectorClock::new(2, 3);
        let e0 = p0.on_local_event();
        let m1 = p0.on_send();
        p1.on_receive(&m1);
        let m2 = p1.on_send();
        let f = p2.on_receive(&m2);
        assert_eq!(e0.causality(&f), Causality::Before, "transitive causality");
        // An isolated P2 event before the receive is concurrent with e0.
        let mut p2b = VectorClock::new(2, 3);
        let g = p2b.on_local_event();
        assert_eq!(e0.causality(&g), Causality::Concurrent);
    }

    #[test]
    fn join_is_lub() {
        let a = VectorStamp::from_slice(&[3, 0, 5]);
        let b = VectorStamp::from_slice(&[1, 4, 5]);
        let j = a.join(&b);
        assert_eq!(j.as_slice(), [3, 4, 5]);
        assert!(a.le(&j) && b.le(&j));
    }

    #[test]
    fn equal_stamps_compare_equal() {
        let a = VectorStamp::from_slice(&[1, 2]);
        let b = VectorStamp::from_slice(&[1, 2]);
        assert_eq!(a.causality(&b), Causality::Equal);
        assert!(!a.lt(&b));
        assert!(a.le(&b));
    }

    #[test]
    fn wire_size_scales_with_n() {
        assert_eq!(VectorStamp::zero(4).wire_size(), 32);
        assert_eq!(VectorStamp::zero(64).wire_size(), 512);
    }

    #[test]
    fn small_stamps_are_inline_and_large_spill() {
        assert!(VectorStamp::zero(INLINE_COMPONENTS).is_inline());
        assert!(!VectorStamp::zero(INLINE_COMPONENTS + 1).is_inline());
        assert!(VectorStamp::from_slice(&[1, 2, 3]).is_inline());
        assert!(VectorStamp::from(vec![0; 64]).len() == 64);
    }

    #[test]
    fn inline_and_spilled_are_observationally_equal() {
        let inline = VectorStamp::from_slice(&[1, 2, 3]);
        let spilled = VectorStamp::spilled(vec![1, 2, 3]);
        assert!(inline.is_inline() && !spilled.is_inline());
        assert_eq!(inline, spilled);
        assert_eq!(inline.causality(&spilled), Causality::Equal);
        let hash = |s: &VectorStamp| {
            use std::hash::{DefaultHasher, Hasher as _};
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&inline), hash(&spilled));
    }

    /// The `unsafe` kernels against the scalar definition and against a
    /// reference written here, for every length up to 129 (sixteen AVX-512
    /// blocks and one over, so every tail length of both kernels occurs), with
    /// values on both sides of 2⁶³ (AVX2 has no unsigned compare and goes
    /// through a sign bias), into a buffer that is uniquely owned and into
    /// one the write has just un-shared. A kernel the CPU lacks is skipped;
    /// the scalar one never is.
    #[test]
    #[allow(unsafe_code)]
    fn simd_merge_kernels_agree_with_scalar_for_every_length() {
        type Kernel = (&'static str, fn(&mut [u64], &[u64]));
        let mut kernels: Vec<Kernel> = vec![("scalar", merge_max_scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                kernels.push(("avx2", |a, b| unsafe { merge_max_avx2(a, b) }));
            }
            if std::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was just verified at runtime.
                kernels.push(("avx512", |a, b| unsafe { merge_max_avx512(a, b) }));
            }
        }
        const TOP: u64 = 1 << 63;
        let value = |i: usize, salt: u64| {
            let x = (i as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            match x >> 62 {
                0 => TOP - 1 - (x & 3), // just below 2⁶³
                1 => TOP + (x & 3),     // at and just above it
                2 => x & !TOP,          // anywhere below
                _ => x | TOP,           // anywhere above
            }
        };
        for len in 0..=129 {
            let a: Vec<u64> = (0..len).map(|i| value(i, 1)).collect();
            let b: Vec<u64> = (0..len).map(|i| value(i, 1_000_003)).collect();
            let expected: Vec<u64> = a.iter().zip(&b).map(|(x, y)| *x.max(y)).collect();
            for (name, kernel) in &kernels {
                for shared in [false, true] {
                    let mut dst = VectorStamp::spilled(a.clone());
                    let holder = shared.then(|| dst.clone());
                    kernel(dst.as_mut_slice(), &b);
                    assert_eq!(dst.as_slice(), expected, "{name}, len {len}, shared {shared}");
                    if let Some(holder) = holder {
                        assert_eq!(holder.as_slice(), a, "{name} wrote through a shared buffer");
                    }
                }
            }
            // The dispatch in `merge_from` picks one of them by length and CPU.
            let mut dst = VectorStamp::from(a.clone());
            dst.merge_from(&VectorStamp::from(b.clone()));
            assert_eq!(dst.as_slice(), expected, "merge_from, len {len}");
        }
    }

    #[test]
    fn serde_round_trip_preserves_components() {
        for stamp in [
            VectorStamp::from_slice(&[1, 0, 9]),
            VectorStamp::from(vec![3; 17]),
            VectorStamp::spilled(vec![4, 5]),
        ] {
            let v = stamp.to_value();
            let back = VectorStamp::from_value(&v).expect("round trip");
            assert_eq!(stamp, back);
            assert_eq!(back.is_inline(), back.len() <= INLINE_COMPONENTS, "repr renormalizes");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_must_be_in_range() {
        let _ = VectorClock::new(3, 3);
    }

    proptest! {
        /// Inline (≤8 components) and spilled (heap) `VectorStamp` storage are
        /// observationally identical: `le`, `concurrent`, `merge_from`, `Eq` and
        /// `Hash` may not depend on which representation holds the components.
        /// Lengths straddle the 8-component boundary so both regimes — and the
        /// boundary itself — are exercised.
        #[test]
        fn inline_and_spilled_representations_agree(
            len in 1usize..=12,
            seed_a in proptest::collection::vec(0u64..50, 12),
            seed_b in proptest::collection::vec(0u64..50, 12),
        ) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let a: Vec<u64> = seed_a[..len].to_vec();
            let b: Vec<u64> = seed_b[..len].to_vec();
            let ia = VectorStamp::from(a.clone());
            let ib = VectorStamp::from(b.clone());
            let sa = VectorStamp::spilled(a.clone());
            let sb = VectorStamp::spilled(b.clone());
            // Representation is as expected on each side of the boundary.
            prop_assert_eq!(ia.is_inline(), len <= 8);
            prop_assert!(!sa.is_inline());
            // Cross-representation observational equality.
            prop_assert_eq!(&ia, &sa);
            prop_assert_eq!(ia.le(&ib), sa.le(&sb));
            prop_assert_eq!(ia.le(&sb), sa.le(&ib));
            prop_assert_eq!(ia.concurrent(&ib), sa.concurrent(&sb));
            prop_assert_eq!(ia.causality(&ib), sa.causality(&sb));
            let hash = |s: &VectorStamp| {
                let mut h = DefaultHasher::new();
                s.hash(&mut h);
                h.finish()
            };
            prop_assert_eq!(hash(&ia), hash(&sa), "Hash must ignore representation");
            // merge_from produces identical components whichever side spilled.
            let mut m1 = ia.clone();
            m1.merge_from(&sb);
            let mut m2 = sa.clone();
            m2.merge_from(&ib);
            prop_assert_eq!(m1.as_slice(), m2.as_slice());
            prop_assert_eq!(
                m1.as_slice().to_vec(),
                a.iter().zip(&b).map(|(x, y)| *x.max(y)).collect::<Vec<_>>()
            );
        }

        /// Clones of a stamp are independent values even though wide ones share
        /// a buffer: a write through any mutator on one side is never visible
        /// through the other side, nor through a third clone taken beforehand
        /// (the copy an execution log would hold). Lengths cover the empty
        /// stamp, the inline/spilled boundary and the SIMD kernels' tails.
        #[test]
        fn a_write_through_one_clone_never_reaches_another(
            len in 0usize..=129,
            force_spill in 0u8..2,
            seed_a in proptest::collection::vec(0u64..1000, 129),
            seed_b in proptest::collection::vec(0u64..1000, 129),
            k_seed in 0usize..129,
        ) {
            let a: Vec<u64> = seed_a[..len].to_vec();
            let b: Vec<u64> = seed_b[..len].to_vec();
            let joined: Vec<u64> = a.iter().zip(&b).map(|(x, y)| *x.max(y)).collect();
            let fresh = || {
                if force_spill == 1 {
                    VectorStamp::spilled(a.clone())
                } else {
                    VectorStamp::from(a.clone())
                }
            };
            let other = VectorStamp::from(b.clone());
            let k = k_seed % len.max(1);
            let bumped = |by: u64| {
                let mut v = a.clone();
                v[k] += by;
                v
            };
            // (name, the write, the components it must leave behind)
            type Mutator<'m> = (&'m str, Box<dyn Fn(&mut VectorStamp) + 'm>, Vec<u64>);
            let mut mutators: Vec<Mutator<'_>> = vec![
                ("merge_from", Box::new(|s| s.merge_from(&other)), joined.clone()),
                (
                    "as_mut_slice",
                    Box::new(|s| s.as_mut_slice().iter_mut().for_each(|c| *c += 7)),
                    a.iter().map(|c| c + 7).collect(),
                ),
            ];
            if len > 0 {
                mutators.push(("tick", Box::new(|s| s.tick(k)), bumped(1)));
                mutators.push(("IndexMut", Box::new(|s| s[k] += 5), bumped(5)));
            }
            for (name, write, expected) in &mutators {
                // Written through the clone, then through the original.
                for write_to_clone in [true, false] {
                    let mut original = fresh();
                    let logged = original.clone();
                    let mut copy = original.clone();
                    let (written, kept) = if write_to_clone {
                        (&mut copy, &original)
                    } else {
                        (&mut original, &copy)
                    };
                    write(written);
                    prop_assert_eq!(kept.as_slice(), &a[..], "{} leaked into the other side", name);
                    let leaked = "leaked into the logged clone";
                    prop_assert_eq!(logged.as_slice(), &a[..], "{} {}", name, leaked);
                    let wrong = "wrote the wrong value";
                    prop_assert_eq!(written.as_slice(), &expected[..], "{} {}", name, wrong);
                }
            }

            // The clocks hand out clones of their own state on every rule; each
            // stamp handed out must stay what it was when the clock moves on.
            if len > 0 {
                let mut clock = VectorClock::new(k, len);
                clock.prime(&fresh());
                let s0 = clock.current();
                let s1 = clock.on_local_event();
                let s2 = clock.on_receive(&other);
                clock.prime(&VectorStamp::from(vec![5000; len]));
                let mut expected = a.clone();
                prop_assert_eq!(s0.as_slice(), &expected[..], "current() moved with the clock");
                expected[k] += 1;
                prop_assert_eq!(s1.as_slice(), &expected[..], "on_local_event()'s stamp moved");
                let mut expected: Vec<u64> =
                    expected.iter().zip(&b).map(|(x, y)| *x.max(y)).collect();
                expected[k] += 1;
                prop_assert_eq!(s2.as_slice(), &expected[..], "on_receive()'s stamp moved");
                prop_assert_eq!(clock.current().as_slice(), &vec![5000; len][..]);

                let mut strobe = crate::StrobeVectorClock::new(k, len);
                strobe.on_strobe(&fresh());
                let t0 = strobe.current();
                strobe.on_strobe(&other);
                prop_assert_eq!(t0.as_slice(), &a[..], "SVC2 merge wrote into a stamp handed out");
                prop_assert_eq!(strobe.current().as_slice(), &joined[..]);
            }
        }
    }
}
