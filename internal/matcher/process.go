package matcher

import (
	"math"

	"schemanet/internal/schema"
	"schemanet/internal/similarity"
)

// Node is one operator of a matching process tree, in the style of AMC's
// process model: leaves evaluate a measure over all attribute pairs;
// inner nodes combine, filter, or boost the similarity matrices of their
// children.
type Node interface {
	eval(ctx *evalCtx) *Matrix
}

type evalCtx struct {
	net    *schema.Network
	corpus *similarity.Corpus
	rows   []schema.AttrID
	cols   []schema.AttrID
}

// Leaf evaluates one measure over all attribute pairs. Build it with
// CorpusLeaf.
type Leaf struct {
	name string
	// corpusFn receives the corpus at evaluation time and returns the
	// measure.
	corpusFn func(c *similarity.Corpus) func(a, b string) float64
}

// CorpusLeaf wraps a corpus-backed measure as a process leaf.
func CorpusLeaf(name string, fn func(c *similarity.Corpus) func(a, b string) float64) *Leaf {
	return &Leaf{name: name, corpusFn: fn}
}

func (l *Leaf) eval(ctx *evalCtx) *Matrix {
	fn := l.corpusFn(ctx.corpus)
	m := NewMatrix(ctx.rows, ctx.cols)
	for i, ra := range ctx.rows {
		for j, cb := range ctx.cols {
			m.Set(i, j, fn(ctx.net.AttrName(ra), ctx.net.AttrName(cb)))
		}
	}
	return m
}

// Combine aggregates the matrices of its children cell-wise.
type Combine struct {
	Children []Node
	Agg      Aggregator
	Weights  []float64
}

func (c *Combine) eval(ctx *evalCtx) *Matrix {
	mats := make([]*Matrix, len(c.Children))
	for i, ch := range c.Children {
		mats[i] = ch.eval(ctx)
	}
	out := NewMatrix(ctx.rows, ctx.cols)
	scores := make([]float64, len(mats))
	rows, cols := out.Dims()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			for k, m := range mats {
				scores[k] = m.At(i, j)
			}
			out.Set(i, j, c.Agg(scores, c.Weights))
		}
	}
	return out
}

// Filter zeroes every cell of its child below the threshold; an
// intermediate selection operator.
type Filter struct {
	Child Node
	T     float64
}

func (f *Filter) eval(ctx *evalCtx) *Matrix {
	m := f.Child.eval(ctx)
	m.Apply(func(v float64) float64 {
		if v < f.T {
			return 0
		}
		return v
	})
	return m
}

// Boost sharpens its child's matrix with a logistic curve centered at
// Mid with steepness Steep, pushing confident scores toward 1 and weak
// scores toward 0 (AMC's boosting operator).
type Boost struct {
	Child Node
	Mid   float64
	Steep float64
}

func (b *Boost) eval(ctx *evalCtx) *Matrix {
	m := b.Child.eval(ctx)
	m.Apply(func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return 1 / (1 + math.Exp(-b.Steep*(v-b.Mid)))
	})
	return m
}

// Process is a matching-process matcher ("AMC-like"): a process tree
// evaluated per interaction edge followed by a selection strategy.
type Process struct {
	name     string
	root     Node
	selector Selector
}

// NewProcess builds a process matcher from a process tree and selector.
func NewProcess(name string, root Node, selector Selector) *Process {
	return &Process{name: name, root: root, selector: selector}
}

// Name implements Matcher.
func (p *Process) Name() string { return p.name }

// Match implements Matcher.
func (p *Process) Match(net *schema.Network) []schema.Correspondence {
	corpus := corpusOf(net)
	score := func(rows, cols []schema.AttrID) *Matrix {
		ctx := &evalCtx{net: net, corpus: corpus, rows: rows, cols: cols}
		return p.root.eval(ctx)
	}
	return matchEdges(net, score, p.selector)
}

// NewAMCLike returns the default "AMC-like" process matcher of the
// experiments: edit-based and affix-based branches combined by max, a
// corpus branch averaged in, filtered, boosted, and selected with the
// max-delta strategy (which deliberately keeps near-ties, producing the
// one-to-one violations the reconciliation resolves).
func NewAMCLike() *Process {
	return NewProcessWithSelector(MaxDelta{Delta: 0.07, T: 0.42})
}

// NewProcessWithSelector builds the AMC-like process tree with a custom
// final selector (used for calibration and ablations).
func NewProcessWithSelector(sel Selector) *Process {
	root := &Boost{
		Mid:   0.72,
		Steep: 12,
		Child: &Filter{
			T: 0.45,
			Child: &Combine{
				Agg:     WeightedAgg,
				Weights: []float64{0.55, 0.45},
				Children: []Node{
					&Combine{
						Agg: MaxAgg,
						Children: []Node{
							CorpusLeaf("levenshtein", func(c *similarity.Corpus) func(a, b string) float64 {
								return Concatenated(c, similarity.LevenshteinSimilarity)
							}),
							CorpusLeaf("jaro-winkler", func(c *similarity.Corpus) func(a, b string) float64 {
								return Normalized(c, similarity.JaroWinkler)
							}),
							CorpusLeaf("concat-trigram", func(c *similarity.Corpus) func(a, b string) float64 {
								return Concatenated(c, func(a, b string) float64 {
									return similarity.QGramDice(a, b, 3)
								})
							}),
							&Combine{
								Agg: AverageAgg,
								Children: []Node{
									CorpusLeaf("prefix", func(c *similarity.Corpus) func(a, b string) float64 {
										return Normalized(c, similarity.PrefixSimilarity)
									}),
									CorpusLeaf("suffix", func(c *similarity.Corpus) func(a, b string) float64 {
										return Normalized(c, similarity.SuffixSimilarity)
									}),
								},
							},
						},
					},
					CorpusLeaf("tfidf-cosine", func(c *similarity.Corpus) func(a, b string) float64 {
						return c.Cosine
					}),
				},
			},
		},
	}
	return NewProcess("amc-like", root, sel)
}
