package bounded

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cauchy"
	"repro/internal/core"
	"repro/internal/heavy"
	"repro/internal/inner"
	"repro/internal/l0"
	"repro/internal/l1"
	"repro/internal/sampler"
	"repro/internal/sparse"
	"repro/internal/stream"
	"repro/internal/support"
	"repro/internal/wire"
)

// Update is one stream element: add Delta to coordinate Index.
type Update = stream.Update

// Tracker measures a stream's exact model state: frequency vector,
// insertion/deletion decomposition, alpha-properties (Definitions 1-2),
// and strict-turnstile validity. It is the ground-truth oracle, not a
// small-space structure.
type Tracker = stream.Tracker

// NewTracker returns an exact tracker over a universe of size n.
func NewTracker(n uint64) *Tracker { return stream.NewTracker(n) }

// Config carries the parameters shared by all constructors.
type Config struct {
	// N is the universe size (indices are in [0, N)). Must be >= 2 and
	// at most 2^44.
	N uint64
	// Eps is the accuracy parameter (problem-specific meaning; see each
	// constructor).
	Eps float64
	// Alpha is the assumed L_p alpha-property bound of the input stream
	// (finite, >= 1). It scales sampling budgets and retention windows.
	Alpha float64
	// Seed drives all randomness: equal Configs fed equal call sequences
	// give identical bytes in every regime (the determinism contract in
	// the package documentation, which also says what Clone and
	// UnmarshalBinary do to the rng stream). Peers that intend to merge or
	// exchange serialized sketches must construct them from identical
	// Configs.
	Seed int64
}

func (c Config) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

// Validate reports whether the configuration is usable by every
// constructor in this package. Historically bad values were silently
// clamped (Alpha < 1) or misbehaved downstream (N outside the fast-range
// hash's 2^44 bound, nonpositive Eps); now every constructor rejects
// them up front with a descriptive error. Call Validate directly to
// check a configuration without constructing anything.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("bounded: Config.N must be >= 2 (universe needs at least two indices), got %d", c.N)
	}
	if c.N > 1<<44 {
		return fmt.Errorf("bounded: Config.N must be <= 2^44 (the fast-range bucket reduction and Cauchy key packing are uniform only up to 44-bit universes), got %d", c.N)
	}
	if !(c.Eps > 0) {
		return fmt.Errorf("bounded: Config.Eps must be positive, got %v", c.Eps)
	}
	if c.Eps >= 1 {
		return fmt.Errorf("bounded: Config.Eps must be below 1 (accuracy parameters live in (0,1)), got %v", c.Eps)
	}
	if c.Alpha < 1 {
		return fmt.Errorf("bounded: Config.Alpha must be >= 1 (alpha = 1 is the insertion-only model; see Definition 1), got %v", c.Alpha)
	}
	if math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 1) {
		return fmt.Errorf("bounded: Config.Alpha must be finite, got %v", c.Alpha)
	}
	return nil
}

// HeavyHitters answers L1 epsilon-heavy-hitters queries on alpha-property
// streams (Section 3 of the paper): it returns every i with
// |f_i| >= eps ||f||_1 and no i with |f_i| < (eps/2) ||f||_1, with high
// probability for strict turnstile streams (Theorem 4) and constant
// probability for general turnstile streams (Theorem 3).
type HeavyHitters struct {
	of[HeavyHitters, *heavy.AlphaL1]
}

// NewHeavyHitters builds the structure. By default it assumes the
// strict turnstile model (exact-counter L1 scale, valid when no prefix
// frequency goes negative); WithStrict(false) selects the general
// turnstile variant.
func NewHeavyHitters(cfg Config, opts ...Option) (*HeavyHitters, error) {
	o, err := buildOptions("NewHeavyHitters", cfg, opts, optStrict)
	if err != nil {
		return nil, err
	}
	e := echo{general: !o.strict}
	return wrap[HeavyHitters](shape{KindHeavyHitters, cfg, e}, heavy.NewAlphaL1(cfg.rng(), hhParams(cfg, e))), nil
}

// hhParams are the Section 3 structure's parameters at (cfg, e).
func hhParams(cfg Config, e echo) heavy.AlphaL1Params {
	mode := heavy.Strict
	if e.general {
		mode = heavy.General
	}
	return heavy.AlphaL1Params{N: cfg.N, Eps: cfg.Eps, Mode: mode, Alpha: cfg.Alpha}
}

// SampleExponent returns p: the structure's CSSS rows sample the stream
// at rate 2^-p, 0 while it is exact (fewer than 2S units seen).
func (h *HeavyHitters) SampleExponent() int {
	return h.use("SampleExponent").SampleExponent()
}

// SamplePosition returns t, the unit updates the structure's CSSS rows
// have consumed: the clock the Figure 2 schedule halves on. A merge sums
// it.
func (h *HeavyHitters) SamplePosition() int64 {
	return h.use("SamplePosition").SamplePosition()
}

// SampleExponentAt returns the exponent the halving schedule sets at
// position t. Merge sums positions and re-applies the schedule, so a
// union of same-Config structures whose SamplePositions sum to t
// samples at 2^-max(SampleExponentAt(t), their largest SampleExponent).
func (h *HeavyHitters) SampleExponentAt(t int64) int {
	return h.use("SampleExponentAt").SampleExponentAt(t)
}

// RaiseSampleExponent thins the structure's CSSS rows down to rate
// 2^-p, one binomial halving per level — what a Merge into a union at
// exponent p would do to them — and leaves a structure already at p or
// coarser alone. From then on it samples at 2^-p until its own position
// reaches the next boundary of the schedule. Its estimates keep their
// law at the coarser rate: only their variance grows. A p the wire
// could not carry is an error and changes nothing.
func (h *HeavyHitters) RaiseSampleExponent(p int) error {
	return h.use("RaiseSampleExponent").RaiseSampleExponent(p)
}

// MergeCounts reports the candidates of the last MergeAll, Merge or
// Rerank run into h's storage: how many distinct ones its parts held
// together, and how many it kept — all of them up to the tracker's
// limit. After a HeavyHittersOver on h it reports that answer's: how
// many distinct candidates crossed the rule, and how many it returned.
// Before any of these it reports zeros.
func (h *HeavyHitters) MergeCounts() (union, kept int) {
	return h.use("MergeCounts").MergeCounts()
}

// Halvings reports how many binomial halvings h's CSSS rows performed
// since h was built, decoded or copied — counting those of the copies
// a Merge thinned to meet it — so after a MergeAll into a copy it is
// what that build cost.
func (h *HeavyHitters) Halvings() int64 {
	return h.use("Halvings").Halvings()
}

// Shift is the linear step of a union kept in place: when h's table is
// the sum of some parts' tables at one sampling exponent (a MergeAll
// whose parts all sampled at the rate it reached), replacing part sub
// by add keeps it the sum of the new set, exactly; sub is nil when add
// joins the set. Only the table and its clock move; Rerank then
// finishes the union. It refuses, changing nothing, unless add and sub
// are compatible with h (Compatible) and sample at h's exponent, and
// the moved position stays below h's next halving. Neither argument is
// written.
func (h *HeavyHitters) Shift(add, sub *HeavyHitters) error {
	if err := Compatible(h, add); err != nil {
		return err
	}
	if sub == nil {
		return h.impl.Shift(add.impl, nil)
	}
	if err := Compatible(h, sub); err != nil {
		return err
	}
	return h.impl.Shift(add.impl, sub.impl)
}

// Rerank finishes a union whose table already is the sum of parts'
// (a MergeAll over parts at one exponent, or one moved by Shift since):
// it merges the parts' L1 scales, sets the table's high-water mark and
// re-ranks every part's candidates against the table, leaving h byte
// for byte as MergeAll(h, parts) would — in O(parts × candidates), not
// O(parts × table). The parts are read as Merge reads its argument.
func (h *HeavyHitters) Rerank(parts []*HeavyHitters) error {
	impls, err := h.impls(parts)
	if err != nil {
		return err
	}
	return h.impl.Rerank(impls)
}

// HeavyHittersOver returns what Rerank(parts) followed by HeavyHitters
// returns — the heavy hitters of the union whose table h holds — and
// writes none of h's candidates: each part's candidates are estimated
// against h's table and those crossing the (3 eps / 4) R rule, with R
// the parts' merged L1 scale, are returned sorted. A union maintained
// by Shift answers its heavy hitters this way without the re-rank,
// which only a read of h's own candidates (its encoding, a Merge from
// it) needs. The parts are read as Merge reads its argument.
func (h *HeavyHitters) HeavyHittersOver(parts []*HeavyHitters) ([]uint64, error) {
	body := h.use("HeavyHittersOver")
	impls, err := h.impls(parts)
	if err != nil {
		return nil, err
	}
	return body.HeavyHittersOver(impls)
}

// impls checks that every part combines with h and returns their
// bodies.
func (h *HeavyHitters) impls(parts []*HeavyHitters) ([]*heavy.AlphaL1, error) {
	impls := make([]*heavy.AlphaL1, len(parts))
	for j, o := range parts {
		if err := Compatible(h, o); err != nil {
			return nil, err
		}
		impls[j] = o.impl
	}
	return impls, nil
}

// HashCandidates fills the hash columns of h's candidates, which a
// decode leaves out, so that every later read of h and every merge
// that reads it hashes nothing: what a store that keeps decoded
// structures to merge pays once per structure instead of once per
// merge.
func (h *HeavyHitters) HashCandidates() {
	h.use("HashCandidates").HashCandidates()
}

// HeavyHitters returns the detected heavy coordinates, sorted.
func (h *HeavyHitters) HeavyHitters() []uint64 {
	return h.use("HeavyHitters").HeavyHitters()
}

// Members returns the heavy-hitter set — the SetQuerier capability
// (an alias of HeavyHitters).
func (h *HeavyHitters) Members() []uint64 {
	return h.use("Members").HeavyHitters()
}

// Estimate returns the point estimate of f_i.
func (h *HeavyHitters) Estimate(i uint64) float64 {
	return h.use("Estimate").Query(i)
}

// EstimateBatch returns the point estimate of every index in one
// batched read — the query-side twin of UpdateBatch: the whole index
// set is hashed in ONE batch evaluation per sketch row (reusing a
// pooled columnar Batch as scratch) and the counter tables are swept
// row-major. Results are in input order and bit-identical to per-index
// Estimate calls.
func (h *HeavyHitters) EstimateBatch(idxs []uint64) []float64 {
	return estimateBatchImpl(h.use("EstimateBatch"), idxs)
}

// EstimateColumns fills out[j] with the point estimate of b.Idx[j],
// reusing b's hash-column scratch — the scratch-reusing form of
// EstimateBatch for callers that plan one Batch (GetBatch + LoadKeys)
// and query repeatedly. out must hold b.Len() entries.
func (h *HeavyHitters) EstimateColumns(b *Batch, out []float64) {
	estimateColumnsImpl(h.use("EstimateColumns"), b, out)
}

// L1Estimator estimates ||f||_1 of an alpha-property stream to (1 +-
// eps): Figure 4 / Theorem 6 in the strict turnstile model (tiny space:
// O(log(alpha/eps) + loglog n) bits), Theorem 8 in the general model.
type L1Estimator struct {
	of[L1Estimator, l1Variant]
}

// l1Variant is what both L1 estimators answer through: the strict one
// (l1.AlphaEstimator) and the general one (cauchy.SampledSketch), each
// in its adapter below.
type l1Variant interface {
	implementation[l1Variant]
	Estimate() float64
	Level() int
	Reset()
}

type strictL1 struct{ *l1.AlphaEstimator }

func (s strictL1) Merge(o l1Variant) error {
	return s.AlphaEstimator.Merge(o.(strictL1).AlphaEstimator)
}

func (s strictL1) CloneInto(dst l1Variant) l1Variant {
	d, _ := dst.(strictL1)
	return strictL1{s.AlphaEstimator.CloneInto(d.AlphaEstimator)}
}

type generalL1 struct{ *cauchy.SampledSketch }

func (g generalL1) Merge(o l1Variant) error {
	return g.SampledSketch.Merge(o.(generalL1).SampledSketch)
}

func (g generalL1) CloneInto(dst l1Variant) l1Variant {
	d, _ := dst.(generalL1)
	return generalL1{g.SampledSketch.CloneInto(d.SampledSketch)}
}

// NewL1Estimator builds the estimator. By default it assumes the strict
// turnstile model with failure probability 0.1; tune the latter with
// WithFailureProb (strict variant only — combining WithFailureProb with
// WithStrict(false) is an error, as is any delta outside (0,1); the
// historical constructor silently replaced bad deltas with 0.1).
func NewL1Estimator(cfg Config, opts ...Option) (*L1Estimator, error) {
	o, err := buildOptions("NewL1Estimator", cfg, opts, optStrict, optFailure)
	if err != nil {
		return nil, err
	}
	if o.failureSet && !o.strict {
		return nil, fmt.Errorf("bounded: WithFailureProb applies only to the strict L1 estimator (the general variant's failure probability is fixed by its row count)")
	}
	rng := cfg.rng()
	if o.strict {
		base := l1.RecommendedBase(cfg.Alpha, cfg.Eps, o.failureProb, cfg.N)
		sh := shape{KindL1Estimator, cfg, echo{failureProb: o.failureProb}}
		return wrap[L1Estimator, l1Variant](sh, strictL1{l1.New(rng, base)}), nil
	}
	// 2^40 rows is beyond any memory; the clamp keeps level lengths in
	// range for any eps.
	r := max(16, int(min(4/(cfg.Eps*cfg.Eps), 1<<40)))
	base := int64(64 * cfg.Alpha * cfg.Alpha / cfg.Eps)
	if base < 16 {
		base = 16
	}
	sh := shape{KindL1Estimator, cfg, echo{general: true}}
	return wrap[L1Estimator, l1Variant](sh, generalL1{l1.NewGeneral(rng, r, 32, 6, base, 10)}), nil
}

// Estimate returns the (1 +- eps) estimate of ||f||_1 — the
// ScalarQuerier capability.
func (e *L1Estimator) Estimate() float64 { return e.use("Estimate").Estimate() }

// SampleLevel returns j*, the oldest live level of the interval
// schedule, whose counters answer Estimate: they sample the stream at
// rate s^-j*, and 0 means every unit is counted. Both variants sit on
// the schedule, the strict one with a Morris clock.
func (e *L1Estimator) SampleLevel() int { return e.use("SampleLevel").Level() }

// L0Estimator estimates the support size ||f||_0 of an L0 alpha-property
// stream to (1 +- eps) (Figure 7 / Theorem 10): only O(log(alpha/eps))
// subsampling rows are kept live, replacing the turnstile
// eps^-2 log n with eps^-2 log(alpha/eps) + log n.
type L0Estimator struct{ of[L0Estimator, *l0.Estimator] }

// NewL0Estimator builds the windowed estimator.
func NewL0Estimator(cfg Config, opts ...Option) (*L0Estimator, error) {
	if _, err := buildOptions("NewL0Estimator", cfg, opts); err != nil {
		return nil, err
	}
	return wrap[L0Estimator](shape{KindL0Estimator, cfg, echo{}}, l0.NewEstimator(cfg.rng(), l0Params(cfg))), nil
}

// l0Params are the Figure 7 estimator's parameters at cfg.
func l0Params(cfg Config) l0.Params {
	return l0.Params{N: cfg.N, Eps: cfg.Eps, Windowed: true, Window: l0.RecommendedWindow(cfg.Alpha, cfg.Eps)}
}

// Estimate returns the (1 +- eps) estimate of ||f||_0 — the
// ScalarQuerier capability.
func (e *L0Estimator) Estimate() float64 {
	return e.use("Estimate").Estimate()
}

// LiveRows reports how many subsampling rows are currently maintained —
// O(log(alpha/eps)) for this windowed structure versus log(n) for the
// unbounded-deletion baseline.
func (e *L0Estimator) LiveRows() int {
	return e.use("LiveRows").LiveRows()
}

// Sample is a successful L1 sample: an index drawn with probability
// (1 +- eps)|f_i|/||f||_1 and an O(eps)-relative-error estimate of f_i.
type Sample = sampler.Result

// L1Sampler is the Figure 3 / Theorem 5 perfect L1 sampler for strict
// turnstile strong alpha-property streams.
type L1Sampler struct {
	of[L1Sampler, *sampler.Sampler]
}

// NewL1Sampler builds the sampler. WithCopies sets the number of
// parallel instances (each succeeds with probability Theta(eps)); the
// default 2/eps copies give constant failure probability.
func NewL1Sampler(cfg Config, opts ...Option) (*L1Sampler, error) {
	o, err := buildOptions("NewL1Sampler", cfg, opts, optCopies)
	if err != nil {
		return nil, err
	}
	copies := samplerCopies(cfg, o.copies)
	return wrap[L1Sampler](shape{KindL1Sampler, cfg, echo{copies: copies}}, sampler.New(cfg.rng(), samplerParams(cfg), copies)), nil
}

// samplerCopies is the sampler's instance count: copies, or 2/eps (at
// least 4) when copies is 0.
func samplerCopies(cfg Config, copies int) int {
	if copies > 0 {
		return copies
	}
	return max(4, int(2/cfg.Eps))
}

// samplerParams are one Figure 3 instance's parameters at cfg.
func samplerParams(cfg Config) sampler.Params {
	return sampler.Params{N: cfg.N, Eps: cfg.Eps, Alpha: cfg.Alpha}
}

// Sample draws one sample — the SampleQuerier capability; ok is false
// when every instance FAILed (the sampler never fabricates an index).
func (s *L1Sampler) Sample() (Sample, bool) {
	return s.use("Sample").Sample()
}

// SupportSampler returns at least min(k, ||f||_0) support coordinates of
// a strict turnstile L0 alpha-property stream (Figure 8 / Theorem 11).
type SupportSampler struct {
	of[SupportSampler, *support.Sampler]
}

// NewSupportSampler builds the sampler; WithK sets the number of
// requested coordinates (default 32).
func NewSupportSampler(cfg Config, opts ...Option) (*SupportSampler, error) {
	o, err := buildOptions("NewSupportSampler", cfg, opts, optK)
	if err != nil {
		return nil, err
	}
	return wrap[SupportSampler](shape{KindSupportSampler, cfg, echo{k: o.k}}, support.NewSampler(cfg.rng(), supportParams(cfg, o.k))), nil
}

// supportParams are the Figure 8 sampler's parameters at (cfg, k).
func supportParams(cfg Config, k int) support.Params {
	return support.Params{N: cfg.N, K: k, Windowed: true, Window: support.RecommendedWindow(cfg.Alpha)}
}

// Recover returns distinct support coordinates, sorted.
func (s *SupportSampler) Recover() []uint64 {
	return s.use("Recover").Recover()
}

// Members returns the recovered support coordinates — the SetQuerier
// capability (an alias of Recover).
func (s *SupportSampler) Members() []uint64 {
	return s.use("Members").Recover()
}

// Contains reports whether i belongs to the sampler's recovered
// support — the Prober capability. Only the level sketches that
// actually sample i are decoded (sparsest first, early exit), so a
// probe is cheaper than materializing Recover's whole union; the
// verdict equals membership in Recover().
func (s *SupportSampler) Contains(i uint64) bool {
	return s.use("Contains").Contains(i)
}

// ProbeBatch returns Contains for every index, in input order — the
// BatchProber capability. One batch hash evaluation assigns every
// index its sampling level and each live level sketch decodes at most
// once per batch (the dominant probe cost), instead of once per index;
// verdicts are identical to per-index Contains calls.
func (s *SupportSampler) ProbeBatch(idxs []uint64) []bool {
	impl := s.use("ProbeBatch")
	out := make([]bool, len(idxs))
	if len(idxs) == 0 {
		return out
	}
	b := core.GetBatch()
	impl.ProbeBatch(b, idxs, out)
	core.PutBatch(b)
	return out
}

// InnerProduct estimates <f, g> between two alpha-property streams to
// additive eps ||f||_1 ||g||_1 (Theorem 2). Its Sketch ingest (Update,
// UpdateBatch, UpdateColumns) feeds the first stream f; UpdateG,
// UpdateBatchG and UpdateColumnsG feed the second stream g.
type InnerProduct struct {
	of[InnerProduct, *inner.Estimator]
}

// NewInnerProduct builds the estimator. The sample budget grows with
// alpha^2/eps as in the paper's s = poly(alpha/eps).
func NewInnerProduct(cfg Config, opts ...Option) (*InnerProduct, error) {
	if _, err := buildOptions("NewInnerProduct", cfg, opts); err != nil {
		return nil, err
	}
	base := int64(16 * cfg.Alpha * cfg.Alpha / cfg.Eps)
	if base < 16 {
		base = 16
	}
	return wrap[InnerProduct](shape{KindInnerProduct, cfg, echo{}}, inner.New(cfg.rng(), inner.Params{
		N: cfg.N, Eps: cfg.Eps, Base: base, Rows: 5,
	})), nil
}

// UpdateF feeds an update to the first stream (alias of Update).
func (ip *InnerProduct) UpdateF(i uint64, delta int64) { ip.use("UpdateF").UpdateF(i, delta) }

// UpdateG feeds an update to the second stream.
func (ip *InnerProduct) UpdateG(i uint64, delta int64) { ip.use("UpdateG").UpdateG(i, delta) }

// UpdateBatchF feeds a batch of updates to the first stream (alias of
// UpdateBatch).
func (ip *InnerProduct) UpdateBatchF(batch []Update) {
	core.UpdateBatch(ip.use("UpdateBatchF").UpdateColumnsF, batch)
}

// UpdateBatchG feeds a batch of updates to the second stream.
func (ip *InnerProduct) UpdateBatchG(batch []Update) {
	core.UpdateBatch(ip.use("UpdateBatchG").UpdateColumnsG, batch)
}

// UpdateColumnsG feeds a pre-planned columnar batch to the second
// stream.
func (ip *InnerProduct) UpdateColumnsG(b *Batch) { ip.use("UpdateColumnsG").UpdateColumnsG(b) }

// Estimate returns the inner-product estimate — the ScalarQuerier
// capability.
func (ip *InnerProduct) Estimate() float64 {
	return ip.use("Estimate").Estimate()
}

// ErrDense is returned by SyncSketch.Decode when the sketched difference
// exceeds the sketch's capacity (Lemma 22's DENSE answer).
var ErrDense = sparse.ErrDense

// SyncSketch is the remote-differential-compression primitive from the
// paper's introduction, packaged end to end: both parties build a
// sketch with the same Seed, one ships its serialized sketch to the
// other, the receiver subtracts it, and Decode returns exactly the
// coordinates on which the two frequency vectors differ — provided
// there are at most `capacity` of them (otherwise ErrDense). The sketch
// is linear, so Merge sums frequency vectors: shard-local sync sketches
// merge into the sketch of the full stream before an exchange.
type SyncSketch struct {
	of[SyncSketch, *sparse.Recovery]
}

// NewSyncSketch builds a sketch able to recover up to WithCapacity
// (default 256) differing coordinates. Peers that intend to exchange
// sketches must use identical cfg (Seed and N included) and capacity.
func NewSyncSketch(cfg Config, opts ...Option) (*SyncSketch, error) {
	o, err := buildOptions("NewSyncSketch", cfg, opts, optCapacity)
	if err != nil {
		return nil, err
	}
	return wrap[SyncSketch](shape{KindSyncSketch, cfg, echo{capacity: o.capacity}}, sparse.NewRecovery(cfg.rng(), o.capacity, cfg.N)), nil
}

// SubRemote subtracts a peer's serialized sketch (built with the same
// Config and capacity) from this one, leaving the sketch of the
// difference vector. It accepts the MarshalBinary envelope only. On a
// zero-value receiver that has not restored any state yet it returns a
// descriptive error instead of panicking: an empty receiver has no hash
// wiring to subtract against — call UnmarshalBinary (or NewSyncSketch
// plus updates) first.
func (s *SyncSketch) SubRemote(data []byte) error {
	if s.impl == nil {
		return fmt.Errorf("bounded: SubRemote on zero-value SyncSketch; restore it with UnmarshalBinary (or build it with NewSyncSketch) first")
	}
	env, err := parseEnvelope(data, KindSyncSketch)
	if err != nil {
		return err
	}
	if err := s.shape.admits(env.shape); err != nil {
		return err
	}
	remote := s.impl.Sibling()
	if err := wire.Fill(env.payload, remote); err != nil {
		return fmt.Errorf("bounded: SyncSketch state: %w", err)
	}
	s.impl.Sub(remote)
	return nil
}

// Decode recovers the sketched (difference) vector exactly, or returns
// ErrDense when it exceeds capacity. A zero-value receiver decodes to
// an error rather than panicking.
func (s *SyncSketch) Decode() (map[uint64]int64, error) {
	if s.impl == nil {
		return nil, fmt.Errorf("bounded: Decode on zero-value SyncSketch; restore it with UnmarshalBinary (or build it with NewSyncSketch) first")
	}
	return s.impl.Decode()
}

// L2HeavyHitters answers L2 heavy hitters queries on alpha-property
// streams (Appendix A): every i with |f_i| >= eps ||f||_2 is returned
// and no i with |f_i| < (eps/2) ||f||_2, using O((alpha/eps)^2) space.
type L2HeavyHitters struct {
	of[L2HeavyHitters, *heavy.AlphaL2]
}

// NewL2HeavyHitters builds the Appendix A structure.
func NewL2HeavyHitters(cfg Config, opts ...Option) (*L2HeavyHitters, error) {
	if _, err := buildOptions("NewL2HeavyHitters", cfg, opts); err != nil {
		return nil, err
	}
	return wrap[L2HeavyHitters](shape{KindL2HeavyHitters, cfg, echo{}}, heavy.NewAlphaL2(cfg.rng(), cfg.N, cfg.Eps, cfg.Alpha)), nil
}

// HeavyHitters returns the detected heavy coordinates, sorted.
func (h *L2HeavyHitters) HeavyHitters() []uint64 {
	return h.use("HeavyHitters").HeavyHitters()
}

// Members returns the heavy-hitter set — the SetQuerier capability
// (an alias of HeavyHitters).
func (h *L2HeavyHitters) Members() []uint64 {
	return h.use("Members").HeavyHitters()
}

// Estimate returns the verification Count-Sketch's point estimate of
// f_i — the value the L2 decision rule thresholds.
func (h *L2HeavyHitters) Estimate(i uint64) float64 {
	return h.use("Estimate").Query(i)
}

// EstimateBatch returns the point estimate of every index in one
// batched read (see HeavyHitters.EstimateBatch).
func (h *L2HeavyHitters) EstimateBatch(idxs []uint64) []float64 {
	return estimateBatchImpl(h.use("EstimateBatch"), idxs)
}

// EstimateColumns fills out[j] with the point estimate of b.Idx[j],
// reusing b's hash-column scratch (see HeavyHitters.EstimateColumns).
func (h *L2HeavyHitters) EstimateColumns(b *Batch, out []float64) {
	estimateColumnsImpl(h.use("EstimateColumns"), b, out)
}
