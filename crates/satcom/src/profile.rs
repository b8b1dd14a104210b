//! Time-varying channel profiles for a full optical downlink pass.
//!
//! A LEO optical downlink is not stationary: the terminal rises over the
//! horizon, the slant path (and therefore the link-budget margin) improves
//! towards culmination and degrades again on the way down, and weather adds
//! attenuation on top.  This module models a pass as a sequence of
//! [`PassSegment`]s — each a share of the transmitted symbols sent at a
//! given elevation under given [`Weather`] — and retunes a
//! [`GilbertElliott`] burst channel per segment from the segment's link
//! margin: the lower the margin, the more often the channel dwells in the
//! bad state and the denser the errors inside a burst.
//!
//! [`LinkProfile`] implements [`SymbolChannel`], so it drops into
//! [`crate::link::LinkSimulation`] wherever a static channel was used.

use rand::Rng;

use crate::channel::{GilbertElliott, SymbolChannel};

/// Link margin at zenith under clear sky, in dB.
const ZENITH_MARGIN_DB: f64 = 6.0;
/// Good-state symbol error rate, independent of margin.
const GOOD_ERROR_RATE: f64 = 1e-5;
/// Per-symbol probability of leaving a fade (mean fade of 50 symbols, the
/// scintillation scale after the receiver's coarse pointing loop).
const P_BAD_TO_GOOD: f64 = 0.02;
/// Per-symbol fade-entry probability at 0 dB margin.
const P_GOOD_TO_BAD_AT_0DB: f64 = 1.6e-3;
/// Bad-state symbol error rate at 0 dB margin.
const BAD_ERROR_RATE_AT_0DB: f64 = 0.5;

/// Atmospheric condition during a segment of the pass, expressed as an
/// attenuation subtracted from the link-budget margin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weather {
    /// Clear sky: no extra attenuation.
    Clear,
    /// Thin/broken clouds: 3 dB attenuation.
    LightClouds,
    /// Rain or thick clouds: 8 dB attenuation.
    Rain,
}

impl Weather {
    /// Attenuation applied to the link margin, in dB.
    #[must_use]
    pub fn attenuation_db(self) -> f64 {
        match self {
            Weather::Clear => 0.0,
            Weather::LightClouds => 3.0,
            Weather::Rain => 8.0,
        }
    }

    /// Short lowercase name ("clear", "clouds", "rain").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Weather::Clear => "clear",
            Weather::LightClouds => "clouds",
            Weather::Rain => "rain",
        }
    }
}

impl std::fmt::Display for Weather {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One segment of a downlink pass: a relative share of the transmitted
/// symbols sent at a fixed elevation under fixed weather.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassSegment {
    /// Relative share of the transmitted symbols (segments split a block of
    /// symbols proportionally to their weights).
    pub weight: u32,
    /// Elevation of the satellite above the horizon, in degrees.
    pub elevation_deg: f64,
    /// Weather during the segment.
    pub weather: Weather,
}

impl PassSegment {
    /// Creates a segment.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero or `elevation_deg` is outside `(0, 90]`.
    #[must_use]
    pub fn new(weight: u32, elevation_deg: f64, weather: Weather) -> Self {
        assert!(weight > 0, "segment weight must be positive");
        assert!(
            elevation_deg > 0.0 && elevation_deg <= 90.0,
            "elevation must be in (0, 90], got {elevation_deg}"
        );
        Self {
            weight,
            elevation_deg,
            weather,
        }
    }

    /// Link-budget margin of the segment in dB: the clear-sky zenith margin
    /// reduced by the slant-path geometry (`10·log10(sin(elevation))`, the
    /// single-layer atmosphere approximation) and the weather attenuation.
    #[must_use]
    pub fn link_margin_db(&self) -> f64 {
        let sin_el = self.elevation_deg.to_radians().sin();
        ZENITH_MARGIN_DB + 10.0 * sin_el.log10() - self.weather.attenuation_db()
    }

    /// The Gilbert–Elliott channel tuned to this segment's link margin.
    ///
    /// A lower margin raises both the fade-entry probability (the channel
    /// spends more time in the bad state) and the symbol error rate inside a
    /// fade; the mean fade duration stays at the scintillation scale of
    /// 50 symbols.
    #[must_use]
    pub fn channel(&self) -> GilbertElliott {
        let margin_db = self.link_margin_db();
        // 10^(-margin/10): 1.0 at 0 dB, larger when the margin goes negative.
        let deficit = 10f64.powf(-margin_db / 10.0);
        let p_good_to_bad = (P_GOOD_TO_BAD_AT_0DB * deficit).clamp(0.0, 0.01);
        let error_rate_bad = (BAD_ERROR_RATE_AT_0DB * deficit.sqrt()).clamp(0.0, 0.8);
        GilbertElliott::new(
            p_good_to_bad,
            P_BAD_TO_GOOD,
            GOOD_ERROR_RATE,
            error_rate_bad,
        )
    }
}

/// A time-varying downlink channel: an ordered sequence of [`PassSegment`]s
/// that splits every corrupted block proportionally by segment weight.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use tbi_satcom::channel::SymbolChannel;
/// use tbi_satcom::profile::{LinkProfile, Weather};
///
/// let profile = LinkProfile::leo_pass(60.0, Weather::LightClouds);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let received = profile.corrupt(&vec![0u8; 100_000], &mut rng);
/// assert!(received.iter().any(|&b| b != 0));
/// assert!(profile.average_symbol_error_rate() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    segments: Vec<PassSegment>,
}

impl LinkProfile {
    /// Creates a profile from explicit segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    #[must_use]
    pub fn new(segments: Vec<PassSegment>) -> Self {
        assert!(!segments.is_empty(), "a profile needs at least one segment");
        Self { segments }
    }

    /// A symmetric five-segment LEO pass under uniform `weather`: rise at
    /// 10°, climb through the midpoint elevation, culminate at
    /// `peak_elevation_deg`, and descend the same way.  The culmination
    /// segments carry twice the symbol share of the horizon segments
    /// (higher elevation also means shorter range and a faster achievable
    /// symbol rate).
    ///
    /// # Panics
    ///
    /// Panics if `peak_elevation_deg` is outside `[10, 90]`.
    #[must_use]
    pub fn leo_pass(peak_elevation_deg: f64, weather: Weather) -> Self {
        assert!(
            (10.0..=90.0).contains(&peak_elevation_deg),
            "peak elevation must be in [10, 90], got {peak_elevation_deg}"
        );
        let rise = 10.0;
        let mid = (rise + peak_elevation_deg) / 2.0;
        Self::new(vec![
            PassSegment::new(1, rise, weather),
            PassSegment::new(2, mid, weather),
            PassSegment::new(2, peak_elevation_deg, weather),
            PassSegment::new(2, mid, weather),
            PassSegment::new(1, rise, weather),
        ])
    }

    /// The segments in pass order.
    #[must_use]
    pub fn segments(&self) -> &[PassSegment] {
        &self.segments
    }

    /// Sum of the segment weights.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.segments.iter().map(|s| u64::from(s.weight)).sum()
    }

    /// Splits a block of `len` symbols into one contiguous span per segment,
    /// proportional to the segment weights.  The spans tile `0..len` exactly;
    /// rounding is deterministic (cumulative-weight based), so the same
    /// `len` always yields the same boundaries.
    #[must_use]
    pub fn spans(&self, len: usize) -> Vec<std::ops::Range<usize>> {
        let total = u128::from(self.total_weight());
        let mut spans = Vec::with_capacity(self.segments.len());
        let mut cumulative = 0u128;
        let mut start = 0usize;
        for segment in &self.segments {
            cumulative += u128::from(segment.weight);
            let end = usize::try_from(len as u128 * cumulative / total)
                .expect("span end fits in usize because it is at most len");
            spans.push(start..end);
            start = end;
        }
        spans
    }
}

impl SymbolChannel for LinkProfile {
    /// Corrupts `data` segment by segment with each segment's retuned
    /// channel, drawing from one shared `rng` stream in pass order (so a
    /// seeded run is bit-reproducible).
    fn corrupt<R: Rng + ?Sized>(&self, data: &[u8], rng: &mut R) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        for (segment, span) in self.segments.iter().zip(self.spans(data.len())) {
            out.extend_from_slice(&segment.channel().corrupt(&data[span], rng));
        }
        out
    }

    fn average_symbol_error_rate(&self) -> f64 {
        let total = self.total_weight() as f64;
        self.segments
            .iter()
            .map(|s| f64::from(s.weight) * s.channel().average_symbol_error_rate())
            .sum::<f64>()
            / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn margin_improves_with_elevation_and_degrades_with_weather() {
        let low = PassSegment::new(1, 15.0, Weather::Clear);
        let high = PassSegment::new(1, 80.0, Weather::Clear);
        assert!(high.link_margin_db() > low.link_margin_db());
        let rain = PassSegment::new(1, 80.0, Weather::Rain);
        assert!(
            (high.link_margin_db() - rain.link_margin_db() - Weather::Rain.attenuation_db()).abs()
                < 1e-12
        );
    }

    #[test]
    fn lower_margin_means_a_harsher_channel() {
        let good = PassSegment::new(1, 80.0, Weather::Clear).channel();
        let bad = PassSegment::new(1, 12.0, Weather::Rain).channel();
        assert!(bad.p_good_to_bad > good.p_good_to_bad);
        assert!(bad.error_rate_bad > good.error_rate_bad);
        assert!(bad.average_symbol_error_rate() > good.average_symbol_error_rate());
    }

    #[test]
    fn spans_tile_the_block_exactly() {
        let profile = LinkProfile::leo_pass(55.0, Weather::Clear);
        for len in [0usize, 1, 7, 255, 10_000, 12_345] {
            let spans = profile.spans(len);
            assert_eq!(spans.len(), profile.segments().len());
            assert_eq!(spans.first().unwrap().start, 0);
            assert_eq!(spans.last().unwrap().end, len);
            for pair in spans.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn corrupt_is_seed_deterministic_and_length_preserving() {
        let profile = LinkProfile::leo_pass(40.0, Weather::Rain);
        let data: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        let a = profile.corrupt(&data, &mut StdRng::seed_from_u64(42));
        let b = profile.corrupt(&data, &mut StdRng::seed_from_u64(42));
        assert_eq!(a.len(), data.len());
        assert_eq!(a, b);
        let c = profile.corrupt(&data, &mut StdRng::seed_from_u64(43));
        assert_ne!(a, c, "different seeds should corrupt differently");
    }

    #[test]
    fn average_rate_is_the_weighted_segment_mean() {
        let profile = LinkProfile::new(vec![
            PassSegment::new(3, 70.0, Weather::Clear),
            PassSegment::new(1, 12.0, Weather::Rain),
        ]);
        let rates: Vec<f64> = profile
            .segments()
            .iter()
            .map(|s| s.channel().average_symbol_error_rate())
            .collect();
        let expected = (3.0 * rates[0] + rates[1]) / 4.0;
        assert!((profile.average_symbol_error_rate() - expected).abs() < 1e-15);
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(0.0f64, f64::max);
        assert!(profile.average_symbol_error_rate() >= min);
        assert!(profile.average_symbol_error_rate() <= max);
    }

    #[test]
    fn deeper_rain_pass_has_worse_margin_than_clear_pass() {
        let clear = LinkProfile::leo_pass(60.0, Weather::Clear);
        let rain = LinkProfile::leo_pass(60.0, Weather::Rain);
        let worst_margin_db = |profile: &LinkProfile| {
            let margins = profile.segments().iter().map(PassSegment::link_margin_db);
            margins.fold(f64::INFINITY, f64::min)
        };
        assert!(worst_margin_db(&rain) < worst_margin_db(&clear));
        assert!(rain.average_symbol_error_rate() > clear.average_symbol_error_rate());
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_profile_is_rejected() {
        let _ = LinkProfile::new(Vec::new());
    }
}
