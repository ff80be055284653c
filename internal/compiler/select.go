package compiler

// Region-by-region parallelism selection (paper §4.2): statistical DOALL
// loops first (no communication or synchronization — the most efficient
// parallelism), then the best of serial, coupled-mode ILP and decoupled
// fine-grain TLP. Regions too small to amortize any parallelization
// overhead stay serial. Measured selection (measured.go) and the tiered
// classifier (adaptive.go) implement the ranking.

// Choice names the technique selected for a region.
type Choice int

// Selection outcomes (Figure 3's categories).
const (
	ChoseSingle Choice = iota
	ChoseILP
	ChoseFTLP
	ChoseLLP
)

// String names the choice.
func (c Choice) String() string {
	switch c {
	case ChoseSingle:
		return "single core"
	case ChoseILP:
		return "ILP"
	case ChoseFTLP:
		return "fine-grain TLP"
	case ChoseLLP:
		return "LLP"
	}
	return "choice?"
}

// minRegionOps is the dynamic-size floor below which a region is not worth
// parallelizing (thread spawn and communication overheads dominate).
const minRegionOps = 64
