//! Deterministic random sources and distribution samplers.
//!
//! Every random draw in the simulator flows through [`SimRng`]: ChaCha12,
//! bit-compatible with rand 0.8.5's `StdRng`, so a seed names the same
//! stream it always has and every sealed snapshot stays reproducible.
//! Subsystems obtain independent streams with [`SimRng::fork`], so adding
//! draws to one subsystem never perturbs another — a prerequisite for
//! reproducible experiments and A/B ablations.
//!
//! Distribution samplers (exponential, normal, lognormal, gamma, Weibull,
//! Poisson, Pareto) are implemented here directly rather than pulling in an
//! external distributions crate.

/// `u64` words per refill: four 16-word ChaCha blocks.
const BUF_WORDS: usize = 32;

/// Deterministic random number generator for simulations.
///
/// ```
/// use rsc_sim_core::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone)]
pub struct SimRng {
    key: [u32; 8],
    /// Block counter of the next refill.
    counter: u64,
    buf: [u64; BUF_WORDS],
    /// Next unread word of `buf`; `BUF_WORDS` when empty.
    index: usize,
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRng").finish_non_exhaustive()
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // rand_core 0.6's `seed_from_u64`: the PCG32 output function expands
        // the seed into the eight key words.
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut state = seed;
        let key = std::array::from_fn(|_| {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            xorshifted.rotate_right((state >> 59) as u32)
        });
        SimRng {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// Forking is stable: the child depends only on the parent's seed
    /// material drawn at fork time and on `label`, so forking the same labels
    /// in the same order yields the same streams.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let base = self.next_u64();
        // SplitMix64-style mix of (base, label) for good seed dispersion.
        let mut z = base ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from(z ^ (z >> 31))
    }

    /// Next raw 64-bit value: two keystream words, low word first.
    pub fn next_u64(&mut self) -> u64 {
        if self.index == BUF_WORDS {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    /// Fills the buffer with the next four keystream blocks, in block order.
    fn refill(&mut self) {
        for (blk, out) in self.buf.chunks_exact_mut(8).enumerate() {
            let block = chacha12_block(&self.key, self.counter.wrapping_add(blk as u64));
            for (slot, pair) in out.iter_mut().zip(block.chunks_exact(2)) {
                *slot = (u64::from(pair[1]) << 32) | u64::from(pair[0]);
            }
        }
        self.counter = self.counter.wrapping_add(4);
        self.index = 0;
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one draw.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below requires n > 0");
        // Lemire's widening multiply, rejecting the low products that would
        // bias the high word (rand 0.8's `UniformInt::sample_single`).
        let zone = (n << n.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(n);
            if wide as u64 <= zone {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponential variate with the given `rate` (λ); mean is `1/rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        // Inverse CDF; 1 - U avoids ln(0).
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Standard normal variate (Box–Muller, polar form).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal variate where the *underlying normal* has the given
    /// `mu`/`sigma` (i.e. the median is `exp(mu)`).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Gamma variate with shape `k` and scale `theta` (mean `k·theta`),
    /// using Marsaglia–Tsang squeeze with the boost for `k < 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `theta` is not strictly positive.
    pub fn gamma(&mut self, k: f64, theta: f64) -> f64 {
        assert!(k > 0.0 && theta > 0.0, "gamma parameters must be positive");
        if k < 1.0 {
            // Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
            let u = self.uniform().max(f64::MIN_POSITIVE);
            return self.gamma(k + 1.0, theta) * u.powf(1.0 / k);
        }
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.uniform();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * theta;
            }
        }
    }

    /// Weibull variate with the given shape and scale.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive.
    pub fn weibull(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(
            shape > 0.0 && scale > 0.0,
            "weibull parameters must be positive"
        );
        scale * (-(1.0 - self.uniform()).ln()).powf(1.0 / shape)
    }

    /// Pareto variate with minimum `x_min` and tail index `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(
            x_min > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        x_min / (1.0 - self.uniform()).powf(1.0 / alpha)
    }

    /// Poisson variate with mean `lambda`.
    ///
    /// Uses Knuth's product method for small means and a rounded normal
    /// approximation beyond `lambda = 256` (relative error there is well
    /// under a percent, which is ample for event counts).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "lambda must be non-negative"
        );
        if lambda == 0.0 {
            return 0;
        }
        if lambda <= 256.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.uniform();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.normal(lambda, lambda.sqrt());
            if x < 0.0 {
                0
            } else {
                x.round() as u64
            }
        }
    }
}

/// One ChaCha12 block in the djb layout: 64-bit block counter in words
/// 12–13, zero stream id in words 14–15.
fn chacha12_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
    #[inline(always)]
    fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }

    let mut initial = [0u32; 16];
    initial[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    initial[4..12].copy_from_slice(key);
    initial[12] = counter as u32;
    initial[13] = (counter >> 32) as u32;
    let mut x = initial;
    // Twelve rounds: six column-then-diagonal double rounds.
    for _ in 0..6 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (w, i) in x.iter_mut().zip(initial) {
        *w = w.wrapping_add(i);
    }
    x
}

/// A discrete distribution over `0..n` with fixed weights, sampled in
/// `O(log n)` by binary search over the cumulative sum.
///
/// ```
/// use rsc_sim_core::rng::{SimRng, WeightedIndex};
///
/// let dist = WeightedIndex::new([1.0, 0.0, 3.0]).unwrap();
/// let mut rng = SimRng::seed_from(7);
/// let idx = dist.sample(&mut rng);
/// assert!(idx == 0 || idx == 2); // index 1 has zero weight
/// ```
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

/// Error from constructing a [`WeightedIndex`] with invalid weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidWeightsError;

impl std::fmt::Display for InvalidWeightsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "weights must be non-negative, finite, and sum to a positive value"
        )
    }
}

impl std::error::Error for InvalidWeightsError {}

impl WeightedIndex {
    /// Builds a weighted sampler from an iterator of non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWeightsError`] if any weight is negative or
    /// non-finite, or if all weights are zero.
    pub fn new<I>(weights: I) -> Result<Self, InvalidWeightsError>
    where
        I: IntoIterator<Item = f64>,
    {
        let mut cumulative = Vec::new();
        let mut total = 0.0f64;
        for w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(InvalidWeightsError);
            }
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err(InvalidWeightsError);
        }
        Ok(WeightedIndex { cumulative, total })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if there are no categories (cannot occur for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws a category index proportional to its weight.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let x = rng.uniform() * self.total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("weights are finite"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Non-negative weights over a `rows × width` grid of categories (category
/// `row * width + col`), stored row-compressed: one common row that every
/// row shares unless it is listed with weights of its own.
///
/// A fleet's per-`(node, mode)` failure rates have this shape: nearly every
/// node carries the per-mode base rates, and only lemon nodes and members
/// of node-set era windows differ. A flat weight vector is the one-row case.
///
/// ```
/// use rsc_sim_core::rng::{AliasTable, RowWeights};
///
/// let mut w = RowWeights::new(3, vec![1.0, 2.0]);
/// w.list_row(1, [5.0, 0.0]);
/// let table = AliasTable::from_rows(w).unwrap();
/// assert_eq!(table.len(), 6);
/// assert_eq!(table.weight(2), 5.0); // row 1, column 0
/// assert_eq!(table.weight(5), 2.0); // row 2 shares the common row
/// ```
#[derive(Debug, Clone)]
pub struct RowWeights {
    rows: u32,
    common: Vec<f64>,
    /// Rows with weights of their own, ascending.
    listed: Vec<u32>,
    /// Their weights, one row of `width` per entry of `listed`.
    listed_weights: Vec<f64>,
}

impl RowWeights {
    /// `rows` rows, each equal to `common` until listed otherwise.
    pub fn new(rows: u32, common: Vec<f64>) -> Self {
        RowWeights {
            rows,
            common,
            listed: Vec::new(),
            listed_weights: Vec::new(),
        }
    }

    /// Gives `row` weights of its own. Rows are listed in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not above the last listed row or not below the
    /// row count, or if `weights` does not hold exactly one row.
    pub fn list_row<I>(&mut self, row: u32, weights: I)
    where
        I: IntoIterator<Item = f64>,
    {
        assert!(row < self.rows, "row {row} out of range");
        assert!(
            self.listed.last().is_none_or(|&last| last < row),
            "rows must be listed in ascending order"
        );
        let start = self.listed_weights.len();
        self.listed_weights.extend(weights);
        assert_eq!(
            self.listed_weights.len() - start,
            self.width(),
            "a listed row must hold one weight per column"
        );
        self.listed.push(row);
    }

    /// Categories per row.
    fn width(&self) -> usize {
        self.common.len()
    }

    /// Number of categories, `rows × width`.
    fn len(&self) -> usize {
        self.rows as usize * self.width()
    }

    /// The weight of category `i`.
    fn get(&self, i: usize) -> f64 {
        assert!(i < self.len(), "category {i} out of range");
        let width = self.width();
        let row = (i / width) as u32;
        match self.listed.binary_search(&row) {
            Ok(k) => self.listed_weights[k * width + i % width],
            Err(_) => self.common[i % width],
        }
    }

    /// Every row in order, as `(listed, weights)`.
    fn iter_rows(&self) -> impl Iterator<Item = (bool, &[f64])> {
        let mut own = self.listed.iter().peekable();
        let mut own_weights = self.listed_weights.chunks_exact(self.width());
        (0..self.rows).map(move |row| match own.next_if_eq(&&row) {
            Some(_) => (true, own_weights.next().expect("one row per listed index")),
            None => (false, &self.common[..]),
        })
    }

    /// Every row from the last to the first, as `(first category, own
    /// weights)`: `None` for a row that shares the common one.
    fn rows_rev(&self) -> impl Iterator<Item = (usize, Option<&[f64]>)> {
        let width = self.width();
        let mut own = self.listed.iter().rev().peekable();
        let mut own_weights = self.listed_weights.chunks_exact(width).rev();
        (0..self.rows).rev().map(move |row| {
            let weights = own
                .next_if_eq(&&row)
                .map(|_| own_weights.next().expect("one row per listed index"));
            (row as usize * width, weights)
        })
    }
}

/// A discrete distribution over `0..n` with fixed weights, sampled in
/// **O(1)** via the Walker–Vose alias method.
///
/// Construction is O(n) and fully deterministic (index-ordered worklists),
/// so rebuilding a table from the same weights always yields the same
/// internal layout — and therefore the same draw sequence for a given RNG
/// state. Prefer this over [`WeightedIndex`] when the same distribution is
/// sampled many times between rebuilds (e.g. the failure injector's merged
/// candidate process, rebuilt only at hazard-era boundaries).
///
/// The layout is compact: per column, one class bit and nothing else.
/// Only *large* columns (scaled weight at least 1) store their acceptance
/// probability, since pairing changes them; a *small* column is never
/// changed once classified, so its acceptance is recomputed from the
/// weights the table owns, bit for bit what Vose's pass would have stored.
/// No alias is stored either. The pairing takes its donors from the large
/// columns highest first and meets the small columns highest first, so
/// each donor serves one run of small columns: a small column's alias is
/// the donor that was serving when the pairing reached it, found from one
/// mark per donor and one starting donor per 64-column word. A donor that
/// flips small is paired with the next donor, the large column below it.
///
/// ```
/// use rsc_sim_core::rng::{AliasTable, SimRng};
///
/// let dist = AliasTable::new([1.0, 0.0, 3.0]).unwrap();
/// let mut rng = SimRng::seed_from(7);
/// let idx = dist.sample(&mut rng);
/// assert!(idx == 0 || idx == 2); // index 1 has zero weight
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// The weights the table was built from.
    weights: RowWeights,
    /// `n / total`: a small column's acceptance is `weight * scale`.
    scale: f64,
    total: f64,
    /// One bit per column, set where the column is small.
    small_bits: Vec<u64>,
    /// Per 64-column word of `small_bits`: the large columns before it.
    large_rank: Vec<u32>,
    /// Final acceptance probability of each large column, in column order.
    /// A large column's index here is its *slot*; donors are taken from
    /// the highest slot down.
    large_prob: Vec<f64>,
    /// Per slot, non-decreasing: the small column at whose pairing the
    /// donor took over. It serves the small columns below that one until
    /// the next donor takes over. `u32::MAX` for the first donor, 0 for
    /// donors the pairing never reached.
    donor_from: Vec<u32>,
    /// Per 64-column word of `small_bits`: the column of the donor that was
    /// serving when the pairing reached the word's highest small column.
    /// Every small column of the word is served by it or by a donor that
    /// took over while the pairing crossed the word, most often a few
    /// slots below, so a draw's search starts here. (The donor itself may
    /// lie thousands of rows from the word.)
    word_donor: Vec<u32>,
    /// Small columns below this index are rounding leftovers that Vose's
    /// pass never paired: their acceptance is 1.
    leftover_below: usize,
}

impl AliasTable {
    /// Builds an alias sampler from an iterator of non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWeightsError`] if any weight is negative or
    /// non-finite, if all weights are zero, or if there are no (or more
    /// than `u32::MAX`) categories.
    pub fn new<I>(weights: I) -> Result<Self, InvalidWeightsError>
    where
        I: IntoIterator<Item = f64>,
    {
        Self::from_rows(RowWeights::new(1, weights.into_iter().collect()))
    }

    /// Builds an alias sampler over row-compressed weights, which the table
    /// keeps. Same layout, bit for bit, as [`AliasTable::new`] over the
    /// weights laid out flat, but the flat weights are never made: the
    /// common row is classified once and its class bits and large values
    /// are copied per row, so at fleet scale (n = nodes × modes) the only
    /// arrays of size `O(n)` are the class bits and the large columns'
    /// acceptances and donor marks.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AliasTable::new`], over every stored weight:
    /// the common row's and each listed row's.
    pub fn from_rows(weights: RowWeights) -> Result<Self, InvalidWeightsError> {
        let n = weights.len();
        let mut stored = weights.common.iter().chain(&weights.listed_weights);
        if n == 0 || n > u32::MAX as usize || !stored.all(|w| (0.0..=f64::MAX).contains(w)) {
            return Err(InvalidWeightsError);
        }
        // Summed in column order, so the total has the flat sum's bits.
        let mut total = 0.0f64;
        for (_, row) in weights.iter_rows() {
            for &w in row {
                total += w;
            }
        }
        if total <= 0.0 || !total.is_finite() {
            return Err(InvalidWeightsError);
        }

        // Vose's method: scale weights to mean 1, then pair each deficit
        // ("small") column with a surplus ("large") donor.
        //
        // Classify each row into its small bits (64 columns per word) and
        // the scaled weights of its large columns, which start as their
        // acceptance and are updated in place by the pairing below. The
        // common row is classified once.
        let scale = n as f64 / total;
        let (mut common_pattern, mut common_large) = (Vec::new(), Vec::new());
        classify(
            &weights.common,
            scale,
            &mut common_pattern,
            &mut common_large,
        );
        let common_rows = weights.rows as usize - weights.listed.len();
        let listed_large = (weights.listed_weights.iter())
            .filter(|&&w| w * scale >= 1.0)
            .count();
        let mut large_prob = Vec::with_capacity(common_large.len() * common_rows + listed_large);
        let mut small_bits = vec![0u64; n.div_ceil(64)];
        let (mut row_pattern, mut row_large) = (Vec::new(), Vec::new());
        let mut at = 0;
        for (listed, row) in weights.iter_rows() {
            let (pattern, large) = if listed {
                classify(row, scale, &mut row_pattern, &mut row_large);
                (&row_pattern, &row_large)
            } else {
                (&common_pattern, &common_large)
            };
            for (k, &word) in pattern.iter().enumerate() {
                or_bits(&mut small_bits, at + 64 * k, word);
            }
            large_prob.extend_from_slice(large);
            at += row.len();
        }
        let mut large_rank = Vec::with_capacity(small_bits.len());
        let mut before = 0u32;
        for &word in &small_bits {
            large_rank.push(before);
            // Only the last word's padding bits can carry the count past
            // `u32::MAX`, and no rank is read after them.
            before = before.wrapping_add((!word).count_ones());
        }

        // Pairing order is that of two LIFO worklists filled in index
        // order — small columns and large donors, each taken highest index
        // first, a donor that flips small being the very next small one
        // paired — which makes the layout deterministic. Neither worklist is
        // materialized: one walk meets the small columns row by row
        // downward (a common row's from a list made once), and the donor
        // is a slot counting down, its running acceptance in `acc`. A
        // flipped donor is paired at once with the next slot.
        let small_cols = |row: &[f64], small: &mut Vec<(usize, f64)>| {
            small.clear();
            let scaled = row.iter().map(|w| w * scale).enumerate().rev();
            small.extend(scaled.filter(|&(_, p)| p < 1.0));
        };
        let (mut common_small, mut row_small) = (Vec::new(), Vec::new());
        small_cols(&weights.common, &mut common_small);
        let mut donor_from = vec![0u32; large_prob.len()];
        // The donor's slot as the pairing enters each word from above;
        // words below `entered` are not reached yet.
        let mut word_donor = vec![0u32; small_bits.len()];
        let mut entered = small_bits.len();
        // Donors not yet used up; the current one is slot `left - 1`.
        let mut left = large_prob.len();
        let mut acc = 0.0;
        if let Some(last) = donor_from.last_mut() {
            *last = u32::MAX;
            acc = large_prob[left - 1];
        }
        let mut leftover_below = 0;
        'pairing: for (start, own) in weights.rows_rev() {
            let small = match own {
                Some(row) => {
                    small_cols(row, &mut row_small);
                    &row_small
                }
                None => &common_small,
            };
            for &(col, p) in small {
                let s = start + col;
                if s / 64 < entered {
                    word_donor[s / 64..entered].fill(left.saturating_sub(1) as u32);
                    entered = s / 64;
                }
                if left == 0 {
                    // No large column at all: every small one is a
                    // float-rounding leftover within an ulp of 1.
                    leftover_below = s + 1;
                    break 'pairing;
                }
                let mut p_s = p;
                loop {
                    acc = (acc + p_s) - 1.0;
                    if acc >= 1.0 {
                        break;
                    }
                    // The donor flips small and is paired with the next.
                    large_prob[left - 1] = acc;
                    left -= 1;
                    if left == 0 {
                        // Nothing left to pair it with: a rounding
                        // leftover, taken as certain like every small
                        // column still below this one.
                        large_prob[0] = 1.0;
                        leftover_below = s;
                        break 'pairing;
                    }
                    donor_from[left - 1] = s as u32;
                    p_s = acc;
                    acc = large_prob[left - 1];
                }
            }
        }
        // The current donor and those below it were never flipped.
        large_prob[..left].fill(1.0);
        word_donor[..entered].fill(left.saturating_sub(1) as u32);
        // Each word's donor slot to its column, in one downward sweep: the
        // slots only fall as the words do.
        if !large_prob.is_empty() {
            let mut w = small_bits.len() - 1;
            for donor in word_donor.iter_mut().rev() {
                let slot = *donor as usize;
                while large_rank[w] as usize > slot {
                    w -= 1;
                }
                let nth = slot - large_rank[w] as usize;
                *donor = (w * 64 + nth_large(small_bits[w], nth)) as u32;
            }
        }
        Ok(AliasTable {
            weights,
            scale,
            total,
            small_bits,
            large_rank,
            large_prob,
            donor_from,
            word_donor,
            leftover_below,
        })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if there are no categories (cannot occur for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of the weights the table was built from.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The weight of category `i` the table was built from.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights.get(i)
    }

    /// Column `i` as a draw reads it: its acceptance probability and its
    /// fallback category. The fallback is only read when the acceptance is
    /// below 1; where it is 1, the column itself is returned.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn column(&self, i: usize) -> (f64, u32) {
        assert!(i < self.len(), "category {i} out of range");
        let (prob, slot) = self.acceptance(i);
        let alias = if prob < 1.0 {
            self.fallback(i, slot)
        } else {
            i
        };
        (prob, alias as u32)
    }

    /// Draws a category index proportional to its weight: one uniform
    /// column pick plus one biased coin. The fallback is looked up only
    /// when the coin rejects, by a search over a few slots and class words
    /// next to the donor that served the top of the drawn column's word.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let i = rng.below(self.len() as u64) as usize;
        let (prob, slot) = self.acceptance(i);
        if rng.uniform() < prob {
            i
        } else {
            self.fallback(i, slot)
        }
    }

    /// Column `i`'s acceptance probability, and its slot if it is large.
    fn acceptance(&self, i: usize) -> (f64, Option<usize>) {
        let (w, bit) = (i / 64, i % 64);
        if (self.small_bits[w] >> bit) & 1 == 1 {
            if i < self.leftover_below {
                (1.0, None)
            } else {
                (self.weights.get(i) * self.scale, None)
            }
        } else {
            let slot = self.slot(i);
            (self.large_prob[slot], Some(slot))
        }
    }

    /// The slot of large column `i`.
    fn slot(&self, i: usize) -> usize {
        let (w, bit) = (i / 64, i % 64);
        let below = !self.small_bits[w] & ((1u64 << bit) - 1);
        self.large_rank[w] as usize + below.count_ones() as usize
    }

    /// The fallback of column `i`, whose acceptance is below 1: for a
    /// flipped donor (`slot` given), the next donor one slot down; for a
    /// small column, the donor serving when the pairing reached it — the
    /// lowest slot whose mark lies above `i`, at most the slot that served
    /// the top of `i`'s word.
    fn fallback(&self, i: usize, slot: Option<usize>) -> usize {
        match slot {
            Some(slot) => self.large_column(slot - 1, i / 64),
            None => {
                let top = self.word_donor[i / 64] as usize;
                let serving = |from: u32| from as usize <= i;
                let donor = partition_point_near(&self.donor_from, self.slot(top), serving);
                self.large_column(donor, top / 64)
            }
        }
    }

    /// The column of large `slot`: its word is the last whose rank is at
    /// most `slot`, searched outward from word `near`.
    fn large_column(&self, slot: usize, near: usize) -> usize {
        let w = partition_point_near(&self.large_rank, near, |rank| rank as usize <= slot) - 1;
        w * 64 + nth_large(self.small_bits[w], slot - self.large_rank[w] as usize)
    }
}

/// The bit position of the `nth` large (clear) bit of a class word,
/// counting from 0 at the lowest.
fn nth_large(word: u64, nth: usize) -> usize {
    let mut large = !word;
    for _ in 0..nth {
        large &= large - 1;
    }
    large.trailing_zeros() as usize
}

/// The first index of `v` whose element fails `pred`, which must hold on a
/// prefix of `v` and nowhere after it. Gallops outward from `start` and
/// then bisects, so an answer `d` places away costs `O(log d)` probes.
fn partition_point_near<T: Copy>(v: &[T], start: usize, pred: impl Fn(T) -> bool) -> usize {
    let start = start.min(v.len());
    let (mut lo, mut hi) = (0, v.len());
    let mut step = 1;
    if start < v.len() && pred(v[start]) {
        lo = start + 1;
        while let Some(&x) = v.get(start + step) {
            if !pred(x) {
                hi = start + step;
                break;
            }
            lo = start + step + 1;
            step *= 2;
        }
    } else {
        hi = start;
        while step <= start {
            if pred(v[start - step]) {
                lo = start - step + 1;
                break;
            }
            hi = start - step;
            step *= 2;
        }
    }
    lo + v[lo..hi].partition_point(|&x| pred(x))
}

/// Classifies one row scaled by `scale`: its small bits, 64 columns per
/// word, into `pattern`, and its large columns' scaled weights into `large`.
fn classify(row: &[f64], scale: f64, pattern: &mut Vec<u64>, large: &mut Vec<f64>) {
    pattern.clear();
    large.clear();
    for chunk in row.chunks(64) {
        let mut word = 0u64;
        for (bit, &w) in chunk.iter().enumerate() {
            let p = w * scale;
            if p < 1.0 {
                word |= 1 << bit;
            } else {
                large.push(p);
            }
        }
        pattern.push(word);
    }
}

/// ORs `word` into `bits` starting at bit `at`. The bits of `word` that
/// would land past the end of `bits` must be zero.
fn or_bits(bits: &mut [u64], at: usize, word: u64) {
    let (w, shift) = (at / 64, at % 64);
    bits[w] |= word << shift;
    if shift > 0 && word >> (64 - shift) != 0 {
        bits[w + 1] |= word >> (64 - shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mean_and_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    /// First 70 `next_u64` words per seed: 32 words per refill, so the
    /// stream crosses the refill boundary twice.
    #[rustfmt::skip]
    const KAT_WORDS: [(u64, [u64; 70]); 3] = [
        (0, [
            0xbb2a3fb2cd2c6f7f, 0xc6017c948e27697b, 0x069dc102cf310a16,
            0x958b761dabe5f6d0, 0x431d9d54dee17b11, 0xc5a0ef111f71c422,
            0x37fc854f12037913, 0xcb30ce1ac9ff61c7, 0xbfd4a4ae9e0d7fac,
            0xf80c4de387b83854, 0xff0ea77dd9987f7e, 0x23ae2c7b48501800,
            0x1ce4b87b0bd4b7bb, 0xf6ff78effd960655, 0x0ca57b6234bb13f0,
            0x6cfacf846e3bd6a2, 0x75e88c63a6e1329a, 0xec9c7a3c30f0a328,
            0x3a1f55f0fed54eba, 0x8f3066bc65781cfd, 0x27c7951faf976aeb,
            0xd5e34c79b892a064, 0x345f099776ef4fb1, 0x80cd14a8135f3ef3,
            0xa3438bd0e15e4e8d, 0x7a95e009bf5704d8, 0xe04696e7582b922f,
            0xdee3997ccb29252a, 0x102ff028bb620156, 0xfca4dc38ecdca315,
            0x37800b8b295b5373, 0xfa202be26fdc7e07, 0xeadd98ee4c0bcc72,
            0xad5d35116362a0a5, 0x03d8ae10610e6994, 0x11b8823ad192ea97,
            0x9e3f6128db1dfde3, 0x9d1ffa92b36998ad, 0xc9055662abf1be91,
            0xaa77ac12532fc768, 0x159ba8dbdd58898e, 0x157eb310d0efd947,
            0x84ca4d1af46bbc6e, 0xc0c08aa8dc6b7cd6, 0xde2674d5410142c3,
            0x166d45842a6f3545, 0x59e3238a3c59c49b, 0x2ff64e1be5db98b8,
            0x85bec518e299eb10, 0xfa077d269f85f25d, 0x4389963b69194a02,
            0x400a21106742ac36, 0xfc2699b77bb0adce, 0xaa7fd3f5ffd75ad9,
            0xac0c944918dfd27d, 0xcab2a0b39fa708d2, 0x4ae55c63b250cb87,
            0xa26c9c2bcd8257a1, 0x08c8f3bdea01252b, 0x15661793eab81afa,
            0x318ce55a03fbe027, 0xa7e71c18bf4da8ff, 0x94da8bfbbe1bb62a,
            0x2fcfbadc0f7c0b95, 0x375b2523ddf70276, 0x51909fe2ba649cea,
            0x5a6323524d959578, 0x8e89bfb99d62d540, 0xa26dcf123267ea3d,
            0x049f3b6a737b27b1,
        ]),
        (42, [
            0x86cc7763222724a2, 0x8af00a133fad517d, 0xa2ef6071de5134d1,
            0x67e92d78fd7630b2, 0x08cab0dff8119fea, 0x6a3a9ca39e0f81a8,
            0xbcc7d8e8590878fb, 0xd9688d9b2f8eb737, 0x219b7e47a11c835e,
            0x00d5211f7aba3a1e, 0xeea11039d26bae37, 0x8193012e994eac09,
            0x64019743ddd2f652, 0x2410b617b5c73fda, 0x85e5e480cd5aadfc,
            0x37fd16ebd1802190, 0x03394b7ca3072fca, 0x84ed7c21290ed3f3,
            0x0cdebc7a765a56e4, 0xa57dc7c9a983551f, 0xd885b9d042c5f5bf,
            0x7f6b05ab76afa832, 0x8187c01bfa9a4fc3, 0x0ef9833f6a0a3f25,
            0x59dbd86317cecb50, 0x7293421f4d4e3852, 0xcb5cceb423cf90d5,
            0x341ade3195244fc4, 0x66d6afcd84ea33f2, 0xa793e7fe2a07abd3,
            0x6c8a64b4dd8a46e1, 0xe373bd0032102eec, 0xec0619b0ee66b7a9,
            0xde8aa9696c100e0f, 0xa61dc1b0a5465bd3, 0x388486e7cf08a133,
            0x93b87b4a5aab1cb6, 0x63de0af2607885cf, 0x1115642b997b2c67,
            0x6da293fb18d37054, 0xfc9562c3091f55b7, 0x9b7e5961cb414813,
            0x73df1642e2a23995, 0x073a4ae23f556051, 0x27797b39e0382235,
            0x627338ea43b2a45d, 0x7dcd37d60133ba8b, 0xf7fc05accfd993dc,
            0xd9ee88a87ff45726, 0x8bb88317f1dee5a4, 0xc4d38653f3b17db5,
            0xcf946b8dc94bd4b1, 0x932dec02ff9f7113, 0x3c205523d9235a7c,
            0x62188a01fc599ee8, 0x64cdf534fb3cda6c, 0x3aa1ddb8e242d766,
            0x3ee79b70f426951e, 0xa26bde22e25bd883, 0x7a5d9e364cf83c54,
            0xf78edf51ececafb5, 0x2b2a00c1f3ba4a43, 0x77167bf3be13f027,
            0x88c5bacb2698ccc0, 0x1c600b38a09340af, 0x542526c88d79b819,
            0x3ea077e2c308632d, 0x917fa5254bc97ee0, 0xaef1e60cdb603c7c,
            0x0f31161748035bc2,
        ]),
        (20250301, [
            0xfb51f725ea0b715f, 0x6de4c9ac28988ed9, 0x1b1cd8aeb0d08ff8,
            0x638cc098492ef804, 0xc35c20cdafca9095, 0xe4e0424d613c8ef1,
            0xffce7dc701505f82, 0xdaff2a2246b3b22d, 0x6e0d926a46de728d,
            0xad41395d35f477af, 0xea362212d087f62d, 0x970ea9800bf221bd,
            0x3123a2d9de053565, 0xa8dd8277374204ca, 0x7b24d177329a2fe9,
            0x434b45939b8ac867, 0xbe75e3994a6fedd9, 0x9026b8b6b0a06357,
            0xc3c3b1bd03b3ff58, 0x0a7dbefb1e67f983, 0xc70b80e911225706,
            0xe7d27e49ffb7db04, 0x4b536f969a312d65, 0xde930912d9b96c79,
            0xeece5a7ed80fa73d, 0x6517d82d34caef69, 0xd7997f334bffffec,
            0x12cfa14cabcf93ba, 0xfa8274010f7ecfa5, 0xacd18310b91a41c8,
            0xc2e1955b84e7c6c8, 0xf5a6d2aa65974fda, 0x2853984c92c7457b,
            0x27694d3873da09ca, 0xb5b25c5f5371ee3a, 0x7152397f4b0be0ff,
            0x3b3a91629ef6a0c7, 0x7cfc61d980e40888, 0xd7cc4dd4b5e393b4,
            0x573e8aabff0957aa, 0xbe844e3902accdc5, 0x8d9eb9e80d7a9e2b,
            0x2f773f5f848ab48d, 0x40c965851411a77d, 0x8ae415421534719a,
            0xa8e5ecc2e0913804, 0xd5f1dfe19c8ba564, 0x47f3075ad4d41ccf,
            0x30499e6c507feced, 0x67082569f676ce49, 0xf56568a9420bbcc2,
            0x92c6c0fdd1666024, 0xb7e9d6481d79ed1b, 0x9dfae059e5a5236a,
            0x99c9dd76889010af, 0x97aa8ef1eb1d8343, 0x1585f0c3e97b444d,
            0xae174cdc9badd554, 0xd2ef6ebf490d53df, 0x455469e3377ac310,
            0xa5efd3ee0a443da2, 0xa365226555b2c32d, 0x1c5d78f8e620c740,
            0x6fd7b3568188ac7c, 0x68890cce10ec9a5c, 0x9e75ee183dea0f55,
            0xf50ab8eeb144e8c5, 0xfee242716fd0d446, 0x3adf7276f9b9e4cb,
            0x88e55a86d9065fa2,
        ]),
    ];

    /// What each seed draws after its 70 words: `uniform()`, `below(3)`,
    /// four `below(2^63 + 1)` (each seed rejects at least once there) and
    /// the first word of `fork(7)`.
    #[rustfmt::skip]
    const KAT_TAIL: [(f64, u64, [u64; 4], u64); 3] = [
        (0.08318268334889878, 0, [357732449710520390, 8443051419036389348,
            7387014409295194608, 7505822463262550597], 0x630b2583773316aa),
        (0.4779908649433223, 2, [4480891422751077686, 4127900747009428960,
            4496883340602442469, 6979456163555900858], 0xaedbb287a375cbe8),
        (0.09108094273768597, 0, [7251718897821394982, 2422313522280182545,
            7428822677191702750, 849507585188657819], 0x76e96302096dc396),
    ];

    /// Pins the stream bit for bit: these are the draws of rand 0.8.5's
    /// `StdRng` that every sealed snapshot was made from, so an edit to the
    /// block function, seed expansion, refill or samplers fails here first.
    #[test]
    fn stream_matches_known_answers() {
        for (&(seed, words), &(uniform, below3, below_big, fork7)) in
            KAT_WORDS.iter().zip(&KAT_TAIL)
        {
            let mut r = SimRng::seed_from(seed);
            let drawn: Vec<u64> = (0..70).map(|_| r.next_u64()).collect();
            assert_eq!(drawn, words, "seed {seed}");
            assert_eq!(r.uniform(), uniform, "seed {seed}");
            assert_eq!(r.below(3), below3, "seed {seed}");
            let big: Vec<u64> = (0..4).map(|_| r.below((1 << 63) + 1)).collect();
            assert_eq!(big, below_big, "seed {seed}");
            assert_eq!(r.fork(7).next_u64(), fork7, "seed {seed}");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..200 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SimRng::seed_from(7);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.uniform()));
        }
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut r = SimRng::seed_from(9);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn forked_streams_are_independent_and_stable() {
        let mut parent1 = SimRng::seed_from(1);
        let mut parent2 = SimRng::seed_from(1);
        let mut a1 = parent1.fork(10);
        let mut a2 = parent2.fork(10);
        assert_eq!(a1.next_u64(), a2.next_u64());

        let mut parent3 = SimRng::seed_from(1);
        let mut b = parent3.fork(11);
        let mut a3 = SimRng::seed_from(1).fork(10);
        assert_ne!(a3.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_matches_mean() {
        let mut rng = SimRng::seed_from(2);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.exponential(0.25)).collect();
        let (mean, _) = mean_and_var(&samples);
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn normal_matches_moments() {
        let mut rng = SimRng::seed_from(3);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.normal(10.0, 2.0)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn gamma_matches_moments() {
        let mut rng = SimRng::seed_from(4);
        // shape 3, scale 2 → mean 6, var 12.
        let samples: Vec<f64> = (0..50_000).map(|_| rng.gamma(3.0, 2.0)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 6.0).abs() < 0.1, "mean={mean}");
        assert!((var - 12.0).abs() < 0.6, "var={var}");
    }

    #[test]
    fn gamma_small_shape_positive() {
        let mut rng = SimRng::seed_from(5);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.gamma(0.5, 1.0)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let (mean, _) = mean_and_var(&samples);
        assert!((mean - 0.5).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut rng = SimRng::seed_from(6);
        let small: Vec<f64> = (0..30_000).map(|_| rng.poisson(3.0) as f64).collect();
        let (mean, var) = mean_and_var(&small);
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
        assert!((var - 3.0).abs() < 0.25, "var={var}");

        let large: Vec<f64> = (0..10_000).map(|_| rng.poisson(1000.0) as f64).collect();
        let (mean, _) = mean_and_var(&large);
        assert!((mean - 1000.0).abs() < 2.0, "mean={mean}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let mut rng = SimRng::seed_from(7);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.weibull(1.0, 5.0)).collect();
        let (mean, _) = mean_and_var(&samples);
        assert!((mean - 5.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut rng = SimRng::seed_from(8);
        for _ in 0..1000 {
            assert!(rng.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn lognormal_median() {
        let mut rng = SimRng::seed_from(9);
        let mut samples: Vec<f64> = (0..30_001).map(|_| rng.lognormal(1.0, 0.8)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0f64.exp()).abs() < 0.08, "median={median}");
    }

    #[test]
    fn weighted_index_proportions() {
        let dist = WeightedIndex::new([1.0, 3.0]).unwrap();
        let mut rng = SimRng::seed_from(10);
        let mut counts = [0u32; 2];
        for _ in 0..40_000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        let frac = counts[1] as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn weighted_index_rejects_bad_weights() {
        assert!(WeightedIndex::new([0.0, 0.0]).is_err());
        assert!(WeightedIndex::new([1.0, -1.0]).is_err());
        assert!(WeightedIndex::new([f64::NAN]).is_err());
        assert!(WeightedIndex::new(std::iter::empty()).is_err());
    }

    #[test]
    fn zero_weight_category_never_sampled() {
        let dist = WeightedIndex::new([1.0, 0.0, 1.0]).unwrap();
        let mut rng = SimRng::seed_from(11);
        for _ in 0..10_000 {
            assert_ne!(dist.sample(&mut rng), 1);
        }
    }

    #[test]
    fn alias_table_proportions() {
        let dist = AliasTable::new([1.0, 3.0, 4.0]).unwrap();
        assert_eq!(dist.len(), 3);
        assert!((dist.total() - 8.0).abs() < 1e-12);
        let mut rng = SimRng::seed_from(10);
        let mut counts = [0u32; 3];
        for _ in 0..80_000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        for (i, expect) in [0.125, 0.375, 0.5].into_iter().enumerate() {
            let frac = counts[i] as f64 / 80_000.0;
            assert!((frac - expect).abs() < 0.01, "i={i} frac={frac}");
        }
    }

    #[test]
    fn alias_table_matches_weighted_index_law() {
        // Same weights, two samplers, two independent streams: the
        // empirical distributions must agree within sampling error.
        let weights = [0.5, 0.0, 2.5, 1.0, 7.0, 0.25];
        let total: f64 = weights.iter().sum();
        let alias = AliasTable::new(weights).unwrap();
        let cumsum = WeightedIndex::new(weights).unwrap();
        let mut rng_a = SimRng::seed_from(20);
        let mut rng_b = SimRng::seed_from(21);
        let n = 60_000;
        let mut count_a = [0u32; 6];
        let mut count_b = [0u32; 6];
        for _ in 0..n {
            count_a[alias.sample(&mut rng_a)] += 1;
            count_b[cumsum.sample(&mut rng_b)] += 1;
        }
        for i in 0..6 {
            let expect = weights[i] / total;
            let fa = count_a[i] as f64 / n as f64;
            let fb = count_b[i] as f64 / n as f64;
            assert!((fa - expect).abs() < 0.012, "alias i={i} frac={fa}");
            assert!((fb - expect).abs() < 0.012, "cumsum i={i} frac={fb}");
        }
    }

    #[test]
    fn alias_table_zero_weight_never_sampled() {
        let dist = AliasTable::new([1.0, 0.0, 1.0]).unwrap();
        let mut rng = SimRng::seed_from(11);
        for _ in 0..10_000 {
            assert_ne!(dist.sample(&mut rng), 1);
        }
    }

    #[test]
    fn alias_table_uniform_weights_cover_all() {
        let dist = AliasTable::new(vec![2.0; 64]).unwrap();
        let mut rng = SimRng::seed_from(12);
        let mut seen = [false; 64];
        for _ in 0..10_000 {
            seen[dist.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn alias_table_rejects_bad_weights() {
        assert!(AliasTable::new([0.0, 0.0]).is_err());
        assert!(AliasTable::new([1.0, -1.0]).is_err());
        assert!(AliasTable::new([f64::NAN]).is_err());
        assert!(AliasTable::new([f64::INFINITY]).is_err());
        assert!(AliasTable::new(std::iter::empty()).is_err());
    }

    #[test]
    fn alias_table_deterministic_given_seed() {
        let weights: Vec<f64> = (0..500).map(|i| (i % 7) as f64 + 0.25).collect();
        let a = AliasTable::new(weights.iter().copied()).unwrap();
        let b = AliasTable::new(weights.iter().copied()).unwrap();
        let mut rng_a = SimRng::seed_from(13);
        let mut rng_b = SimRng::seed_from(13);
        for _ in 0..1_000 {
            assert_eq!(a.sample(&mut rng_a), b.sample(&mut rng_b));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(12);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    /// Vose's method on two LIFO worklists filled in index order — the
    /// layout [`AliasTable`] must read as, column by column.
    /// `None` where the table build must fail.
    fn two_stack_vose(weights: &[f64]) -> Option<(Vec<f64>, Vec<u32>)> {
        let n = weights.len();
        let mut total = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return None;
            }
            total += w;
        }
        if n == 0 || total <= 0.0 || !total.is_finite() {
            return None;
        }
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in large.into_iter().chain(small) {
            prob[i as usize] = 1.0;
        }
        Some((prob, alias))
    }

    /// Weight vectors of one of five shapes: random with zeros, all equal,
    /// a single category, a periodic fleet row (a per-node mode-rate
    /// pattern) with sparse lemon outliers, and mostly zeros.
    fn alias_inputs(shape: u8, len: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from(seed);
        match shape % 5 {
            0 => (0..len)
                .map(|_| {
                    if rng.chance(0.25) {
                        0.0
                    } else {
                        rng.uniform_range(0.0, 4.0)
                    }
                })
                .collect(),
            1 => vec![[1.0, 2.0, 0.25, 3.0, 1e-3][rng.below(5) as usize]; len],
            2 => vec![rng.uniform_range(0.1, 10.0)],
            3 => {
                let modes = [6.5e-3, 1.2e-3, 4e-4, 2.5e-3, 0.0, 8e-4, 3e-3, 1.5e-4];
                (0..len)
                    .map(|i| {
                        let base = modes[i % modes.len()];
                        if rng.chance(0.01) {
                            base * 40.0 + 0.02
                        } else {
                            base
                        }
                    })
                    .collect()
            }
            _ => (0..len)
                .map(|_| {
                    if rng.chance(0.05) {
                        rng.uniform_range(0.5, 2.0)
                    } else {
                        0.0
                    }
                })
                .collect(),
        }
    }

    /// Asserts that `table` reads, column by column, as the two-stack
    /// layout: the same acceptance bits everywhere, and the same alias
    /// wherever the acceptance is below 1 (elsewhere no draw reads it).
    fn assert_columns_match(table: &AliasTable, (prob, alias): &(Vec<f64>, Vec<u32>)) {
        assert_eq!(table.len(), prob.len());
        for (i, (&p, &a)) in prob.iter().zip(alias).enumerate() {
            let (got_p, got_a) = table.column(i);
            assert_eq!(
                got_p.to_bits(),
                p.to_bits(),
                "column {i}: {got_p:e} != {p:e}"
            );
            if p < 1.0 {
                assert_eq!(got_a, a, "column {i}: alias");
            }
        }
    }

    /// `weights` in rows of `width`, row-compressed: the first row is the
    /// common one, and every row that differs from it in any bit is listed.
    fn row_compressed(weights: &[f64], width: usize) -> RowWeights {
        let common = &weights[..width];
        let mut rows = RowWeights::new((weights.len() / width) as u32, common.to_vec());
        for (r, row) in weights.chunks_exact(width).enumerate() {
            if row
                .iter()
                .zip(common)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                rows.list_row(r as u32, row.iter().copied());
            }
        }
        rows
    }

    /// Builds `weights` flat and, for each row width that divides their
    /// length, row-compressed; each table must fail where the oracle does
    /// and otherwise match it column by column.
    fn assert_layout_matches_two_stacks(weights: Vec<f64>) {
        let expect = two_stack_vose(&weights);
        let mut tables = vec![AliasTable::new(weights.iter().copied())];
        for width in [2, 3, 8, 12] {
            if weights.len().is_multiple_of(width) {
                tables.push(AliasTable::from_rows(row_compressed(&weights, width)));
            }
        }
        for table in tables {
            match (table, &expect) {
                (Ok(table), Some(expect)) => assert_columns_match(&table, expect),
                (Err(_), None) => {}
                (table, _) => panic!("built {:?} for weights {weights:?}", table.is_ok()),
            }
        }
    }

    #[test]
    fn alias_layout_matches_two_stacks_at_word_edges() {
        for len in [1, 2, 63, 64, 65, 127, 128, 129] {
            for shape in 0..5 {
                for seed in 0..8 {
                    assert_layout_matches_two_stacks(alias_inputs(shape, len, seed));
                }
            }
        }
        assert_layout_matches_two_stacks(vec![0.0; 64]);
        assert_layout_matches_two_stacks(vec![1.0, f64::NAN]);
        assert_layout_matches_two_stacks(vec![f64::MAX, f64::MAX]);
    }

    #[test]
    fn alias_layout_matches_two_stacks_at_fleet_shape() {
        // 102,400 nodes × 12 modes: one per-mode row shared by every node,
        // plus 1% lemon rows with raised rates, built row-compressed.
        let modes = [
            3.9e-3, 1.1e-3, 4.2e-4, 8.6e-4, 1.7e-3, 0.0, 2.2e-4, 6.1e-4, 9.4e-4, 1.3e-4, 3.0e-4,
            5.5e-4,
        ];
        let nodes = 102_400u32;
        let mut rng = SimRng::seed_from(22);
        let mut weights = RowWeights::new(nodes, modes.to_vec());
        for node in 0..nodes {
            if rng.chance(0.01) {
                let (mode, extra) = (rng.below(12) as usize, rng.uniform_range(0.02, 0.5));
                let row = modes.iter().enumerate();
                weights.list_row(
                    node,
                    row.map(|(j, &r)| if j == mode { r + extra } else { r }),
                );
            }
        }
        let flat: Vec<f64> = (0..weights.len()).map(|i| weights.get(i)).collect();
        let expect = two_stack_vose(&flat).expect("valid weights");
        let table = AliasTable::from_rows(weights).expect("valid weights");
        assert_columns_match(&table, &expect);
    }

    /// Per-mode failure rates of a 12-mode fleet row, one mode never firing.
    const FLEET_MODES: [f64; 12] = [
        3.9e-3, 1.1e-3, 4.2e-4, 8.6e-4, 1.7e-3, 0.0, 2.2e-4, 6.1e-4, 9.4e-4, 1.3e-4, 3.0e-4, 5.5e-4,
    ];

    /// `nodes` rows of [`FLEET_MODES`], 1% of them lemon rows with one
    /// raised rate: the fleet shape of the layout tests.
    fn fleet_weights(nodes: u32, seed: u64) -> RowWeights {
        let mut rng = SimRng::seed_from(seed);
        let mut weights = RowWeights::new(nodes, FLEET_MODES.to_vec());
        for node in 0..nodes {
            if rng.chance(0.01) {
                let (mode, extra) = (rng.below(12) as usize, rng.uniform_range(0.02, 0.5));
                let row = FLEET_MODES.iter().enumerate();
                weights.list_row(
                    node,
                    row.map(|(j, &r)| if j == mode { r + extra } else { r }),
                );
            }
        }
        weights
    }

    /// `weights` laid out flat, as the oracle takes them.
    fn flat(weights: &RowWeights) -> Vec<f64> {
        (0..weights.len()).map(|i| weights.get(i)).collect()
    }

    /// Asserts that `draws` draws from `table` equal, draw for draw, those
    /// read off the two-stack layout with a generator on the same seed.
    fn assert_draws_match(table: &AliasTable, (prob, alias): &(Vec<f64>, Vec<u32>), draws: usize) {
        let (mut ours, mut theirs) = (SimRng::seed_from(41), SimRng::seed_from(41));
        for k in 0..draws {
            let i = theirs.below(prob.len() as u64) as usize;
            let expect = if theirs.uniform() < prob[i] {
                i
            } else {
                alias[i] as usize
            };
            assert_eq!(table.sample(&mut ours), expect, "draw {k}");
        }
    }

    /// Builds `weights` row-compressed at `width`: it must fail where the
    /// oracle does, and otherwise match it column by column and on 2,000
    /// draws. Returns the table, if built.
    fn assert_rows_match_two_stacks(weights: &[f64], width: usize) -> Option<AliasTable> {
        let table = AliasTable::from_rows(row_compressed(weights, width));
        match (table, two_stack_vose(weights)) {
            (Ok(table), Some(expect)) => {
                assert_columns_match(&table, &expect);
                assert_draws_match(&table, &expect, 2_000);
                Some(table)
            }
            (Err(_), None) => None,
            (table, _) => panic!("built {:?} for weights {weights:?}", table.is_ok()),
        }
    }

    #[test]
    fn alias_layout_matches_two_stacks_in_rows_wider_than_a_word() {
        // A row spans two or three class words, and a word two rows.
        for width in [65, 72, 100, 136] {
            for shape in [0, 1, 3, 4] {
                for seed in 0..4 {
                    assert_rows_match_two_stacks(&alias_inputs(shape, width * 9, seed), width);
                }
            }
        }
    }

    #[test]
    fn alias_layout_matches_two_stacks_with_zero_weight_columns() {
        // Half the modes never fire, a tenth of the rows fire nothing, and
        // a few rows raise one mode.
        for seed in 0..8 {
            let mut rng = SimRng::seed_from(seed);
            let mut weights: Vec<f64> = (0..12 * 300)
                .map(|i| if i % 12 < 6 { 0.0 } else { FLEET_MODES[i % 12] })
                .collect();
            for row in weights.chunks_exact_mut(12).skip(1) {
                if rng.chance(0.1) {
                    row.fill(0.0);
                } else if rng.chance(0.02) {
                    row[rng.below(12) as usize] += 0.3;
                }
            }
            assert_rows_match_two_stacks(&weights, 12).expect("positive total");
        }
    }

    #[test]
    fn alias_layout_all_equal_weights_leave_rounding_leftovers() {
        // Equal weights scale to within an ulp of 1: every column large,
        // or every column small and left unpaired with acceptance 1.
        let mut all_leftovers = 0;
        for w in [0.1, 0.3, 0.7, 1e-3, 2.0 / 3.0] {
            for rows in 1..=40 {
                let table = assert_rows_match_two_stacks(&vec![w; 12 * rows], 12);
                let table = table.expect("positive total");
                all_leftovers += usize::from(table.leftover_below == table.len());
            }
            for len in 1..=130 {
                assert_layout_matches_two_stacks(vec![w; len]);
            }
        }
        assert!(all_leftovers > 0, "no all-leftover table was built");
    }

    #[test]
    fn alias_layout_last_donor_flips_with_none_left() {
        // Found by search: rounding drops the last donor below 1 on its
        // last pairing, with no donor left to pair it with, so it and the
        // small columns the walk has not reached are leftovers.
        for weights in [
            vec![0.35, 0.2, 0.05],
            vec![0.35, 0.35, 0.3, 0.05, 0.7, 0.05],
        ] {
            assert_layout_matches_two_stacks(weights.clone());
            let table = AliasTable::new(weights).expect("positive total");
            assert!(!table.large_prob.is_empty() && table.leftover_below > 0);
        }
    }

    #[test]
    fn alias_layout_one_listed_row_serves_thousands_of_rows() {
        // Two listed rows hold 6/7 of the mass, so every other column is
        // small. The higher, row 4,000, is the first donor; it flips after
        // ~1,700 rows and falls back on row 100, 3,900 rows below, which
        // then serves every row left.
        let fleet = FLEET_MODES.iter().sum::<f64>() * 5_000.0;
        let mut weights = RowWeights::new(5_000, FLEET_MODES.to_vec());
        for (row, extra) in [(100, 4.0 * fleet), (4_000, 2.0 * fleet)] {
            let raised = FLEET_MODES.iter().enumerate();
            weights.list_row(
                row,
                raised.map(|(j, &r)| if j == 4 { r + extra } else { r }),
            );
        }
        let expect = two_stack_vose(&flat(&weights)).expect("valid weights");
        let table = AliasTable::from_rows(weights).expect("valid weights");
        assert_columns_match(&table, &expect);
        assert_draws_match(&table, &expect, 20_000);
        let (low, high) = (100 * 12 + 4, 4_000 * 12 + 4);
        assert_eq!(table.large_prob.len(), 2);
        let (p, alias) = table.column(high);
        assert!(
            p < 1.0 && alias == low as u32,
            "row 4,000 falls back on row 100"
        );
        let served = (0..table.len()).filter(|&i| {
            let (p, alias) = table.column(i);
            p < 1.0 && alias == low as u32
        });
        assert!(served.count() > 12 * 3_000);
    }

    #[test]
    fn alias_layout_draw_stream_matches_two_stacks_at_fleet_shape() {
        let weights = fleet_weights(102_400, 22);
        let expect = two_stack_vose(&flat(&weights)).expect("valid weights");
        let table = AliasTable::from_rows(weights).expect("valid weights");
        assert_draws_match(&table, &expect, 100_000);
    }

    #[test]
    fn alias_layout_keeps_no_per_column_array_but_class_bits() {
        let table = AliasTable::from_rows(fleet_weights(102_400, 22)).expect("valid weights");
        // Every field is named, so a new one fails to compile until it is
        // sized here too.
        let AliasTable {
            weights,
            scale: _,
            total: _,
            small_bits,
            large_rank,
            large_prob,
            donor_from,
            word_donor,
            leftover_below: _,
        } = &table;
        let (n, words) = (table.len(), table.len().div_ceil(64));
        let small: usize = small_bits.iter().map(|w| w.count_ones() as usize).sum();
        let large = n - small;
        assert!(large < n / 2, "{large} of {n} columns are large");
        assert_eq!(small_bits.len(), words);
        assert_eq!((large_rank.len(), word_donor.len()), (words, words));
        assert_eq!((large_prob.len(), donor_from.len()), (large, large));
        assert_eq!(weights.common.len(), 12);
        assert_eq!(weights.listed_weights.len(), 12 * weights.listed.len());
        assert!(weights.listed.len() < n / 1_000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn alias_layout_matches_two_stacks(
            shape in 0u8..5,
            len in 1usize..=600,
            seed in any::<u64>(),
        ) {
            assert_layout_matches_two_stacks(alias_inputs(shape, len, seed));
        }
    }
}
