package mem

import (
	"math/rand"
	"testing"
)

// lruModel is a naive set-associative LRU cache: each set lists its tags
// from least to most recently used.
type lruModel struct {
	sets      [][]int64
	assoc     int
	lineBytes int64
}

func newLRUModel(cfg CacheCfg) *lruModel {
	n := cfg.SizeBytes / (cfg.LineBytes * int64(cfg.Assoc))
	if n < 1 {
		n = 1
	}
	return &lruModel{sets: make([][]int64, n), assoc: cfg.Assoc, lineBytes: cfg.LineBytes}
}

// access looks addr up and fills it on a miss; it reports whether addr hit
// and whether the fill evicted a valid line.
func (m *lruModel) access(addr int64) (hit, evicted bool) {
	line := addr / m.lineBytes
	n := int64(len(m.sets))
	set, tag := line%n, line/n
	ways := m.sets[set]
	for i, t := range ways {
		if t == tag {
			m.sets[set] = append(append(ways[:i:i], ways[i+1:]...), tag)
			return true, false
		}
	}
	if len(ways) == m.assoc {
		ways, evicted = ways[1:], true
	}
	m.sets[set] = append(ways, tag)
	return false, evicted
}

// fetchModel is the reference for a fetch-only System: private LRU L1Is
// over a shared LRU L2 whose line-interleaved banks each accept one access
// per l2BankBusy cycles.
type fetchModel struct {
	cfg        Config
	l1i        []*lruModel
	l2         *lruModel
	bankFreeAt []int64
	st         Stats
}

func newFetchModel(cfg Config) *fetchModel {
	m := &fetchModel{cfg: cfg, l2: newLRUModel(cfg.L2), bankFreeAt: make([]int64, cfg.L2Banks)}
	for c := 0; c < cfg.Cores; c++ {
		m.l1i = append(m.l1i, newLRUModel(cfg.L1I))
	}
	m.st.L1IHits = make([]int64, cfg.Cores)
	m.st.L1IMisses = make([]int64, cfg.Cores)
	return m
}

func (m *fetchModel) fetch(core int, addr, now int64) int64 {
	if hit, _ := m.l1i[core].access(addr); hit {
		m.st.L1IHits[core]++
		return now + m.cfg.L1I.HitLat
	}
	m.st.L1IMisses[core]++
	bank := addr / m.cfg.L2.LineBytes % int64(len(m.bankFreeAt))
	start := max(now, m.bankFreeAt[bank])
	m.bankFreeAt[bank] = start + l2BankBusy
	done := start + m.cfg.L2Lat
	hit, evicted := m.l2.access(addr)
	if hit {
		m.st.L2Hits++
	} else {
		m.st.L2Misses++
		done += m.cfg.MemLat
	}
	if evicted {
		m.st.Writebacks++ // L2 lines are always dirty
	}
	return done + m.cfg.L1I.HitLat
}

// TestFetchMatchesLRUModel drives random per-core fetch streams — runs
// within one line, jumps between lines that conflict in one L1I set, and
// far jumps that miss in the L2 — through the System and the naive model,
// with a Reset partway, and requires identical times and counters. It
// covers the power-of-two geometry (shift indexing) and an odd one
// (division indexing).
func TestFetchMatchesLRUModel(t *testing.T) {
	pow2 := DefaultConfig(3)
	pow2.L1I = CacheCfg{SizeBytes: 512, Assoc: 2, LineBytes: 64, HitLat: 1}
	pow2.L2 = CacheCfg{SizeBytes: 2 << 10, Assoc: 4, LineBytes: 64, HitLat: 10}
	pow2.L2Banks = 2
	odd := pow2
	odd.L1I = CacheCfg{SizeBytes: 576, Assoc: 3, LineBytes: 48, HitLat: 2}
	odd.L2 = CacheCfg{SizeBytes: 1440, Assoc: 2, LineBytes: 48, HitLat: 10}
	odd.L2Banks = 3
	for name, cfg := range map[string]Config{"pow2": pow2, "odd": odd} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			s := NewSystem(cfg, NewFlat(64))
			m := newFetchModel(cfg)
			line := cfg.L1I.LineBytes
			setSpan := cfg.L1I.SizeBytes / int64(cfg.L1I.Assoc) // same set, next tag
			pc := make([]int64, cfg.Cores)
			var now int64
			for step := 0; step < 20000; step++ {
				if step == 10000 {
					s.Reset(NewFlat(64))
					m = newFetchModel(cfg)
				}
				core := rng.Intn(cfg.Cores)
				switch r := rng.Intn(10); {
				case r < 6: // sequential: mostly the same line
					pc[core] += 4
				case r < 8: // conflict in the same L1I set
					pc[core] += setSpan * int64(1+rng.Intn(3))
				case r < 9: // back to a recent line
					pc[core] = max(0, pc[core]-line*int64(rng.Intn(4)))
				default: // far jump
					pc[core] = int64(rng.Intn(1<<16)) &^ 3
				}
				now += int64(rng.Intn(3))
				addr := int64(core)<<20 | pc[core]
				got, want := s.Fetch(core, addr, now), m.fetch(core, addr, now)
				if got != want {
					t.Fatalf("step %d: fetch core %d addr %#x at %d done %d, model %d", step, core, addr, now, got, want)
				}
			}
			for c := 0; c < cfg.Cores; c++ {
				if s.St.L1IHits[c] != m.st.L1IHits[c] || s.St.L1IMisses[c] != m.st.L1IMisses[c] {
					t.Errorf("core %d: L1I hits/misses %d/%d, model %d/%d", c,
						s.St.L1IHits[c], s.St.L1IMisses[c], m.st.L1IHits[c], m.st.L1IMisses[c])
				}
				if m.st.L1IHits[c] == 0 || m.st.L1IMisses[c] == 0 {
					t.Errorf("core %d: stream exercised only hits or only misses", c)
				}
			}
			if s.St.L2Hits != m.st.L2Hits || s.St.L2Misses != m.st.L2Misses || s.St.Writebacks != m.st.Writebacks {
				t.Errorf("L2 hits/misses/writebacks %d/%d/%d, model %d/%d/%d",
					s.St.L2Hits, s.St.L2Misses, s.St.Writebacks, m.st.L2Hits, m.st.L2Misses, m.st.Writebacks)
			}
		})
	}
}
