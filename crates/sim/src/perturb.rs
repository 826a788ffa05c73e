//! Seeded, deterministic perturbation of operation durations.
//!
//! A [`Perturbation`] models a *degraded* cluster: per-op duration
//! jitter, per-device straggler multipliers, per-link bandwidth
//! degradation and transient stall events. It is applied to base op
//! durations (in `bfpp-exec`, a clean lowering's `perturbed_durations`,
//! or a topology class member's duration table, whose randomness-free
//! factors fold into its cells and whose per-op draws the replay makes
//! through [`Draws::perturb`]), so the whole fault model lives in the
//! durations and the solver's timing rule stays untouched.
//!
//! Determinism is the load-bearing property: the factor applied to an
//! op is a **pure hash** of (perturbation fingerprint, device, op
//! class, salt) — there is no sequential RNG state — so the same seed
//! yields the same timeline no matter how many threads evaluate
//! candidates or in what order ops are perturbed. An *identity*
//! perturbation (all magnitudes zero / multipliers 1) returns the base
//! duration bit-for-bit, so the unperturbed path is exactly preserved.
//!
//! Magnitude constraints keep analytic pruning sound: stragglers and
//! link degradation may only *slow* ops down (multipliers ≥ 1), and
//! jitter is bounded (`jitter_frac < 1`), so the throughput upper
//! bound of a perturbed run exceeds the unperturbed bound by at most
//! [`Perturbation::max_speedup`].
//!
//! Perturbations compose on top of the cluster's *hardware map*: on a
//! heterogeneous fleet the base duration handed to
//! [`Perturbation::perturb`] is already the per-device one (an A100
//! stage's kernel is shorter than a V100 stage's before any fault is
//! applied), and the perturbation multiplies it. A straggler is thus
//! relative to its own device — "device 0 at 1.5×" slows a fast node
//! by 50%, not to some fleet-wide reference speed — and the identity
//! perturbation preserves the heterogeneous timeline bit-for-bit.

use crate::time::SimDuration;

/// Which kind of work an operation represents, for perturbation
/// purposes: compute kernels feel device stragglers, communication
/// feels link degradation; both feel jitter and stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// A compute kernel on a device.
    Compute,
    /// A network transfer or collective.
    Communication,
}

/// A seeded, deterministic perturbation of op durations.
///
/// ```
/// use bfpp_sim::{OpClass, Perturbation, SimDuration};
///
/// // Device 3's compute runs 2x slow; nothing else is touched.
/// let p = Perturbation::with_seed(7).with_straggler(3, 2.0);
/// let base = SimDuration::from_nanos(100);
/// assert_eq!(
///     p.perturb(base, OpClass::Compute, 3, 0),
///     SimDuration::from_nanos(200),
/// );
/// // Other devices, and communication on the straggler, are unchanged
/// // bit-for-bit — as is everything under an identity perturbation.
/// assert_eq!(p.perturb(base, OpClass::Compute, 0, 0), base);
/// assert_eq!(p.perturb(base, OpClass::Communication, 3, 0), base);
/// assert!(Perturbation::with_seed(7).is_identity());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbation {
    seed: u64,
    /// Symmetric per-op jitter: factor drawn from `[1 - j, 1 + j)`.
    jitter_frac: f64,
    /// Multiplier (≥ 1) on every communication op.
    link_degradation: f64,
    /// Per-op probability of a transient stall.
    stall_probability: f64,
    /// Duration added when a stall fires.
    stall: SimDuration,
    /// Per-device compute multipliers (≥ 1), sorted by device id.
    stragglers: Vec<(u32, f64)>,
}

/// Mixes a 64-bit value through the splitmix64 finalizer — the standard
/// statistically strong bijection; good enough to decorrelate per-op
/// draws from structured (device, salt) inputs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from 53 hash bits.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Perturbation {
    /// The identity perturbation: no jitter, no stragglers, no
    /// degradation, no stalls. Applying it returns every duration
    /// unchanged, bit-for-bit.
    pub fn none() -> Self {
        Self::with_seed(0)
    }

    /// An identity-magnitude perturbation carrying `seed`. Until a
    /// magnitude is set via the builder methods this is still the
    /// identity (the seed alone changes nothing).
    pub fn with_seed(seed: u64) -> Self {
        Perturbation {
            seed,
            jitter_frac: 0.0,
            link_degradation: 1.0,
            stall_probability: 0.0,
            stall: SimDuration::ZERO,
            stragglers: Vec::new(),
        }
    }

    /// Sets symmetric per-op duration jitter: each op's duration is
    /// scaled by a factor drawn uniformly from `[1 - frac, 1 + frac)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= frac < 1` (a factor of zero or below would
    /// let ops vanish and break the pruning bound).
    pub fn with_jitter(mut self, frac: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0, 1), got {frac}"
        );
        self.jitter_frac = frac;
        self
    }

    /// Marks `device` as a straggler: all its compute ops are slowed by
    /// `multiplier`. Setting a device twice replaces its multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier < 1` — stragglers may only slow devices
    /// down (speedups would invalidate the search's pruning bound).
    pub fn with_straggler(mut self, device: u32, multiplier: f64) -> Self {
        assert!(
            multiplier >= 1.0 && multiplier.is_finite(),
            "straggler multiplier must be >= 1, got {multiplier}"
        );
        match self.stragglers.binary_search_by_key(&device, |&(d, _)| d) {
            Ok(i) => self.stragglers[i].1 = multiplier,
            Err(i) => self.stragglers.insert(i, (device, multiplier)),
        }
        self
    }

    /// Slows every communication op by `multiplier` (degraded links).
    ///
    /// # Panics
    ///
    /// Panics if `multiplier < 1`.
    pub fn with_link_degradation(mut self, multiplier: f64) -> Self {
        assert!(
            multiplier >= 1.0 && multiplier.is_finite(),
            "link degradation must be >= 1, got {multiplier}"
        );
        self.link_degradation = multiplier;
        self
    }

    /// Adds transient stall events: each op independently stalls for
    /// `stall` extra time with probability `probability`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= probability <= 1`.
    pub fn with_stalls(mut self, probability: f64, stall: SimDuration) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "stall probability must be in [0, 1], got {probability}"
        );
        self.stall_probability = probability;
        self.stall = stall;
        self
    }

    /// The reference probe used for robustness reporting: a fixed-seed
    /// 1.5× straggler on device 0. One shared definition keeps the
    /// search report's robustness columns comparable across runs.
    pub fn reference_probe() -> Self {
        Self::with_seed(0xB1F).with_straggler(0, 1.5)
    }

    /// True when applying this perturbation cannot change any duration
    /// (all magnitudes are zero / all multipliers are one). Identity
    /// perturbations short-circuit in [`Perturbation::perturb`], so the
    /// perturbed path is bit-identical to the unperturbed one.
    pub fn is_identity(&self) -> bool {
        self.jitter_frac == 0.0
            && self.link_degradation == 1.0
            && (self.stall_probability == 0.0 || self.stall.is_zero())
            && self.stragglers.iter().all(|&(_, m)| m == 1.0)
    }

    /// How many leading devices this perturbation leaves bit-for-bit
    /// unchanged: every op on a device below the count keeps its base
    /// duration. `0` when it draws per-op randomness
    /// ([`Perturbation::has_randomness`]) or degrades links (comm ops on
    /// every device take that factor); otherwise the lowest device whose
    /// straggler multiplier is not 1, or `u32::MAX` when nothing is
    /// slowed. Devices are `u32` indices, so a pipeline of `n` devices is
    /// untouched iff `n` is at most the count — which also holds for a
    /// straggler on device `u32::MAX`, though that perturbation is not
    /// [the identity](Perturbation::is_identity).
    ///
    /// ```
    /// use bfpp_sim::Perturbation;
    ///
    /// assert_eq!(Perturbation::none().untouched_devices(), u32::MAX);
    /// let p = Perturbation::with_seed(1)
    ///     .with_straggler(5, 1.5)
    ///     .with_straggler(3, 1.2)
    ///     .with_straggler(1, 1.0); // a factor of 1 slows nothing
    /// assert_eq!(p.untouched_devices(), 3, "devices 0, 1 and 2 are untouched");
    /// assert_eq!(p.with_jitter(0.1).untouched_devices(), 0);
    /// ```
    pub fn untouched_devices(&self) -> u32 {
        if self.has_randomness() || self.link_degradation != 1.0 {
            return 0;
        }
        self.stragglers
            .iter()
            .find(|&&(_, m)| m != 1.0)
            .map_or(u32::MAX, |&(d, _)| d)
    }

    /// A stable 64-bit digest of every field, usable as a cache /
    /// candidate-identity key: two perturbations with the same
    /// fingerprint produce the same timeline for the same graph.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(self.seed ^ 0x6266_7070); // "bfpp"
        let mut mix = |v: u64| h = splitmix64(h ^ v);
        mix(self.jitter_frac.to_bits());
        mix(self.link_degradation.to_bits());
        mix(self.stall_probability.to_bits());
        mix(self.stall.as_nanos());
        for &(d, m) in &self.stragglers {
            mix(u64::from(d));
            mix(m.to_bits());
        }
        h
    }

    /// The compute multiplier of `device` (1 unless it is a straggler).
    pub fn straggler_multiplier(&self, device: u32) -> f64 {
        self.stragglers
            .binary_search_by_key(&device, |&(d, _)| d)
            .map(|i| self.stragglers[i].1)
            .unwrap_or(1.0)
    }

    /// True when this perturbation draws per-op randomness (jitter or
    /// active stalls). Without randomness, [`Perturbation::perturb`] is
    /// fully decided by [`Perturbation::class_factor`], letting bulk
    /// callers precompute one factor per (class, device) instead of
    /// hashing per op.
    pub fn has_randomness(&self) -> bool {
        self.jitter_frac > 0.0 || (self.stall_probability > 0.0 && !self.stall.is_zero())
    }

    /// The deterministic multiplier applied to ops of `class` on
    /// `device`: the straggler multiplier for compute, the link
    /// degradation for communication.
    pub fn class_factor(&self, class: OpClass, device: u32) -> f64 {
        match class {
            OpClass::Compute => self.straggler_multiplier(device),
            OpClass::Communication => self.link_degradation,
        }
    }

    /// Applies a deterministic factor exactly as
    /// [`Perturbation::perturb`] does on its randomness-free path, so
    /// bulk fast paths built on [`Perturbation::class_factor`] stay
    /// bit-identical to per-op `perturb` calls.
    pub fn apply_factor(base: SimDuration, factor: f64) -> SimDuration {
        if factor == 1.0 || base.is_zero() {
            return base;
        }
        SimDuration::from_nanos((base.as_nanos() as f64 * factor).round() as u64)
    }

    /// The largest factor by which this perturbation can *shorten* an
    /// op: `1 / (1 - jitter_frac)` (only jitter can speed ops up; all
    /// other knobs are constrained ≥ 1). The search scales its
    /// throughput upper bound by this so pruning stays sound under
    /// perturbation.
    pub fn max_speedup(&self) -> f64 {
        1.0 / (1.0 - self.jitter_frac)
    }

    /// Perturbs one op duration. `salt` disambiguates ops that share a
    /// (device, class) — callers pass a per-op stable value (e.g. the
    /// op's index in its graph). Identity perturbations, zero-length
    /// ops, and ops a randomness-free perturbation does not touch (the
    /// usual straggler-sweep case) return `base` unchanged, without any
    /// hashing — this keeps the duration-only re-solve path in the
    /// robustness sweep cheap.
    ///
    /// Under randomness this is [`Perturbation::draws`] →
    /// [`Draws::slot`] → [`Draws::perturb`] in one call. A bulk caller
    /// perturbing many ops of one perturbation should take those steps
    /// itself: the fingerprint (five splitmix64 rounds plus two per
    /// straggler) is then hashed once, each (device, class) slot once,
    /// and only the op's salt per op — same key, same bits.
    pub fn perturb(
        &self,
        base: SimDuration,
        class: OpClass,
        device: u32,
        salt: u64,
    ) -> SimDuration {
        if base.is_zero() {
            return base;
        }
        let Some(draws) = self.draws() else {
            // No per-op randomness configured: the deterministic class
            // factor fully decides the result, so skip the hashing.
            return Self::apply_factor(base, self.class_factor(class, device));
        };
        draws.perturb(base, draws.slot(class, device), salt)
    }

    /// The per-request half of [`Perturbation::perturb`]'s randomness
    /// path, hoisted out of per-op loops: this perturbation with its
    /// fingerprint computed once. `None` when it draws no per-op
    /// randomness ([`Perturbation::has_randomness`]), where the class
    /// factor alone decides every op.
    pub fn draws(&self) -> Option<Draws<'_>> {
        self.has_randomness().then(|| Draws {
            perturbation: self,
            fingerprint: self.fingerprint(),
        })
    }
}

/// A randomness-drawing [`Perturbation`] with its fingerprint hoisted
/// (see [`Perturbation::draws`]). It carries the perturbation it was
/// computed from, so a fingerprint cannot be paired with another one.
#[derive(Debug, Clone, Copy)]
pub struct Draws<'a> {
    perturbation: &'a Perturbation,
    fingerprint: u64,
}

/// One (device, op class) resource slot's share of the per-op draw key,
/// and its deterministic class factor — computed once per slot by
/// [`Draws::slot`], then reused for every op on that slot.
#[derive(Debug, Clone, Copy)]
pub struct SlotDraw {
    hash: u64,
    factor: f64,
}

impl Draws<'_> {
    /// The hoisted inputs of ops of `class` on `device`.
    pub fn slot(&self, class: OpClass, device: u32) -> SlotDraw {
        let class_bits = match class {
            OpClass::Compute => 0x43u64,       // 'C'
            OpClass::Communication => 0x4du64, // 'M'
        };
        SlotDraw {
            hash: splitmix64((u64::from(device) << 8) | class_bits),
            factor: self.perturbation.class_factor(class, device),
        }
    }

    /// The per-op half: hashes only `salt` into the key, then draws the
    /// jitter and the stall. Bit-identical to [`Perturbation::perturb`]
    /// of the same op, zero-length ops included.
    pub fn perturb(&self, base: SimDuration, slot: SlotDraw, salt: u64) -> SimDuration {
        if base.is_zero() {
            return base;
        }
        let p = self.perturbation;
        let key = splitmix64(self.fingerprint ^ splitmix64(salt)) ^ slot.hash;
        let factor = if p.jitter_frac > 0.0 {
            (1.0 + p.jitter_frac * (2.0 * unit_f64(splitmix64(key ^ 1)) - 1.0)) * slot.factor
        } else {
            slot.factor
        };
        let mut nanos = (base.as_nanos() as f64 * factor).round() as u64;
        if p.stall_probability > 0.0
            && !p.stall.is_zero()
            && unit_f64(splitmix64(key ^ 2)) < p.stall_probability
        {
            nanos += p.stall.as_nanos();
        }
        SimDuration::from_nanos(nanos)
    }
}

impl Default for Perturbation {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn identity_returns_base_bit_for_bit() {
        let p = Perturbation::none();
        assert!(p.is_identity());
        for ns in [0u64, 1, 17, 123_456_789] {
            let base = SimDuration::from_nanos(ns);
            assert_eq!(p.perturb(base, OpClass::Compute, 0, 9), base);
            assert_eq!(p.perturb(base, OpClass::Communication, 3, 42), base);
        }
        // A seed alone is still the identity.
        assert!(Perturbation::with_seed(77).is_identity());
        assert_eq!(
            Perturbation::with_seed(77).perturb(
                SimDuration::from_nanos(100),
                OpClass::Compute,
                1,
                2
            ),
            SimDuration::from_nanos(100)
        );
    }

    #[test]
    fn same_inputs_same_output() {
        let p = Perturbation::with_seed(42)
            .with_jitter(0.1)
            .with_straggler(2, 1.5)
            .with_link_degradation(1.2)
            .with_stalls(0.05, SimDuration::from_millis(1));
        let q = p.clone();
        for salt in 0..100u64 {
            for dev in 0..4 {
                for class in [OpClass::Compute, OpClass::Communication] {
                    let base = SimDuration::from_nanos(10 * MS + salt);
                    assert_eq!(
                        p.perturb(base, class, dev, salt),
                        q.perturb(base, class, dev, salt),
                        "pure function of its inputs"
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Perturbation::with_seed(1).with_jitter(0.2);
        let b = Perturbation::with_seed(2).with_jitter(0.2);
        let base = SimDuration::from_nanos(10 * MS);
        let differs = (0..32u64).any(|s| {
            a.perturb(base, OpClass::Compute, 0, s) != b.perturb(base, OpClass::Compute, 0, s)
        });
        assert!(differs, "seeds must decorrelate the draws");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn straggler_slows_only_its_device_compute() {
        let p = Perturbation::with_seed(7).with_straggler(1, 2.0);
        let base = SimDuration::from_nanos(10 * MS);
        assert_eq!(p.perturb(base, OpClass::Compute, 0, 3), base);
        assert_eq!(
            p.perturb(base, OpClass::Compute, 1, 3),
            SimDuration::from_nanos(20 * MS)
        );
        // Communication on the straggler device is unaffected.
        assert_eq!(p.perturb(base, OpClass::Communication, 1, 3), base);
        assert_eq!(p.straggler_multiplier(1), 2.0);
        assert_eq!(p.straggler_multiplier(0), 1.0);
        // Re-setting replaces, does not duplicate.
        let p = p.with_straggler(1, 3.0);
        assert_eq!(p.straggler_multiplier(1), 3.0);
    }

    #[test]
    fn link_degradation_slows_only_communication() {
        let p = Perturbation::with_seed(7).with_link_degradation(1.5);
        let base = SimDuration::from_nanos(10 * MS);
        assert_eq!(p.perturb(base, OpClass::Compute, 0, 3), base);
        assert_eq!(
            p.perturb(base, OpClass::Communication, 0, 3),
            SimDuration::from_nanos(15 * MS)
        );
    }

    #[test]
    fn jitter_stays_within_bounds_and_varies() {
        let j = 0.25;
        let p = Perturbation::with_seed(5).with_jitter(j);
        let base = SimDuration::from_nanos(1000 * MS);
        let mut seen = std::collections::HashSet::new();
        for salt in 0..200u64 {
            let d = p.perturb(base, OpClass::Compute, 0, salt);
            let ratio = d.as_nanos() as f64 / base.as_nanos() as f64;
            assert!(
                (1.0 - j - 1e-9..1.0 + j + 1e-9).contains(&ratio),
                "jitter out of range: {ratio}"
            );
            seen.insert(d.as_nanos());
        }
        assert!(seen.len() > 100, "draws must vary across salts");
        assert!((p.max_speedup() - 1.0 / (1.0 - j)).abs() < 1e-12);
    }

    #[test]
    fn stalls_fire_at_roughly_the_requested_rate() {
        let p = Perturbation::with_seed(9).with_stalls(0.25, SimDuration::from_millis(5));
        let base = SimDuration::from_nanos(MS);
        let n = 2000;
        let stalled = (0..n)
            .filter(|&salt| p.perturb(base, OpClass::Compute, 0, salt) > base)
            .count();
        let rate = stalled as f64 / n as f64;
        assert!(
            (0.18..0.32).contains(&rate),
            "stall rate {rate} far from 0.25"
        );
    }

    /// The per-op key spelled out in one expression, recomputed from
    /// scratch for every op — the definition the hoisted path must keep.
    fn unhoisted(
        p: &Perturbation,
        base: SimDuration,
        class: OpClass,
        device: u32,
        salt: u64,
    ) -> SimDuration {
        if base.is_zero() {
            return base;
        }
        let class_factor = p.class_factor(class, device);
        let class_bits = if class == OpClass::Compute {
            0x43
        } else {
            0x4d
        };
        let key = splitmix64(p.fingerprint() ^ splitmix64(salt))
            ^ splitmix64((u64::from(device) << 8) | class_bits);
        let jitter = 1.0 + p.jitter_frac * (2.0 * unit_f64(splitmix64(key ^ 1)) - 1.0);
        let mut nanos = (base.as_nanos() as f64 * (jitter * class_factor)).round() as u64;
        if unit_f64(splitmix64(key ^ 2)) < p.stall_probability {
            nanos += p.stall.as_nanos();
        }
        SimDuration::from_nanos(nanos)
    }

    #[test]
    fn hoisted_draws_equal_per_op_perturb_bit_for_bit() {
        for seed in [0u64, 7, 23, 1 << 40] {
            let p = Perturbation::with_seed(seed)
                .with_jitter(0.5)
                .with_straggler(2, 1.4)
                .with_straggler(5, 2.0)
                .with_link_degradation(1.2)
                .with_stalls(0.2, SimDuration::from_millis(3));
            let draws = p.draws().expect("jitter and stalls draw");
            let mut stalled = 0;
            for device in 0..8 {
                for class in [OpClass::Compute, OpClass::Communication] {
                    let slot = draws.slot(class, device);
                    for salt in 0..64u64 {
                        for ns in [0, 1, 977, 10 * MS + salt] {
                            let base = SimDuration::from_nanos(ns);
                            let want = unhoisted(&p, base, class, device, salt);
                            assert_eq!(draws.perturb(base, slot, salt), want, "{seed} {device}");
                            assert_eq!(p.perturb(base, class, device, salt), want);
                            stalled += u32::from(ns == 977 && want.as_nanos() > MS);
                        }
                    }
                }
            }
            assert!(stalled > 0, "the stall term is exercised");
        }
        // No randomness, no draws: the class factor decides alone.
        assert!(Perturbation::reference_probe().draws().is_none());
        assert!(Perturbation::none().draws().is_none());
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = Perturbation::with_seed(3);
        let variants = [
            base.clone().with_jitter(0.1),
            base.clone().with_straggler(0, 1.5),
            base.clone().with_straggler(1, 1.5),
            base.clone().with_link_degradation(2.0),
            base.clone().with_stalls(0.1, SimDuration::from_millis(1)),
        ];
        let mut prints: Vec<u64> = variants.iter().map(Perturbation::fingerprint).collect();
        prints.push(base.fingerprint());
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), variants.len() + 1, "all distinct");
    }

    #[test]
    fn reference_probe_is_a_straggler_probe() {
        let p = Perturbation::reference_probe();
        assert!(!p.is_identity());
        assert_eq!(p.straggler_multiplier(0), 1.5);
        assert_eq!(p.max_speedup(), 1.0, "the probe must not speed anything up");
    }

    #[test]
    fn untouched_devices_counts_the_leading_unslowed_devices() {
        let p = Perturbation::with_seed(4);
        assert_eq!(p.untouched_devices(), u32::MAX, "identity: all devices");
        assert_eq!(Perturbation::none().untouched_devices(), u32::MAX);
        // The lowest slowed straggler decides, whatever the insertion
        // order; a factor-1 straggler slows nothing.
        let q = p
            .clone()
            .with_straggler(9, 2.0)
            .with_straggler(0, 1.0)
            .with_straggler(6, 1.5);
        assert_eq!(q.untouched_devices(), 6);
        assert_eq!(q.clone().with_straggler(6, 1.0).untouched_devices(), 9);
        assert_eq!(p.clone().with_straggler(0, 1.2).untouched_devices(), 0);
        // A straggler beyond every u32-indexed pipeline keeps the count
        // exact, but the perturbation is not the identity.
        let last = p.clone().with_straggler(u32::MAX, 2.0);
        assert_eq!(last.untouched_devices(), u32::MAX);
        assert!(!last.is_identity());
        // Link degradation reaches comm ops on every device, and
        // per-op randomness any op.
        for p in [
            q.clone().with_link_degradation(1.1),
            q.clone().with_jitter(0.2),
            q.clone().with_stalls(0.1, SimDuration::from_millis(1)),
        ] {
            assert_eq!(p.untouched_devices(), 0, "{p:?}");
        }
        // Inactive stalls and a factor-1 link draw nothing.
        let inert = q
            .with_stalls(0.0, SimDuration::from_millis(1))
            .with_link_degradation(1.0);
        assert_eq!(inert.untouched_devices(), 6);
        assert_eq!(Perturbation::reference_probe().untouched_devices(), 0);
    }

    proptest::proptest! {
        /// Every op on a device below the untouched count keeps its
        /// base duration bit-for-bit.
        #[test]
        fn ops_below_the_untouched_count_keep_their_duration(
            seed in 0u64..1 << 20,
            stragglers in proptest::collection::vec((0u32..12, 1.0f64..3.0), 0..4),
            ones in proptest::collection::vec(0u32..12, 0..3),
            link in proptest::sample::select(vec![1.0, 1.0, 1.3]),
            jitter in proptest::sample::select(vec![0.0, 0.0, 0.2]),
            stall in proptest::sample::select(vec![0.0, 0.3]),
            ops in proptest::collection::vec(
                (0u64..1 << 30, 0u32..14, proptest::any::<bool>(), 0u64..1 << 40),
                1..64,
            ),
        ) {
            let mut p = Perturbation::with_seed(seed)
                .with_link_degradation(link)
                .with_jitter(jitter)
                .with_stalls(stall, SimDuration::from_micros(50));
            for (device, factor) in stragglers {
                p = p.with_straggler(device, factor);
            }
            for device in ones {
                p = p.with_straggler(device, 1.0);
            }
            let untouched = p.untouched_devices();
            for (ns, device, compute, salt) in ops {
                if device >= untouched {
                    continue;
                }
                let class = if compute { OpClass::Compute } else { OpClass::Communication };
                let base = SimDuration::from_nanos(ns);
                proptest::prop_assert_eq!(p.perturb(base, class, device, salt), base, "{:?}", &p);
            }
        }
    }

    #[test]
    #[should_panic(expected = "straggler multiplier must be >= 1")]
    fn speedup_stragglers_rejected() {
        let _ = Perturbation::none().with_straggler(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "jitter fraction must be in [0, 1)")]
    fn full_jitter_rejected() {
        let _ = Perturbation::none().with_jitter(1.0);
    }
}
