package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"regexp"
	"strings"

	"github.com/chirplab/chirp/internal/stats"
	"github.com/chirplab/chirp/internal/workloads"
)

// footerRe matches chirpexp's per-experiment wall-clock footer, the one
// line of its output that differs between identical runs.
var footerRe = regexp.MustCompile(`(?m)^-- \S+ done in .* --\n`)

// digest is the sha256 of chirpexp's stdout with the footers removed.
func digest(stdout []byte) string {
	sum := sha256.Sum256(footerRe.ReplaceAll(stdout, nil))
	return hex.EncodeToString(sum[:])
}

// pinsFile holds the pinned output digests: workload → pinKey → digest.
const pinsFile = "bench/digests.json"

type pins map[string]map[string]string

func loadPins(path string) (pins, error) {
	p := pins{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// pinKey names the inputs an output digest depends on: the scale and,
// unless the workload ignores it, the seed. The worker count is left
// out because chirpexp's output does not depend on it.
func (w workload) pinKey(seed uint64) string {
	k := fmt.Sprintf("n=%d instr=%d", w.N, w.Instr)
	if !w.FixedSeed {
		k = fmt.Sprintf("seed=%d %s", seed, k)
	}
	return k
}

// check compares a digest with the pinned one for the workload's
// inputs, if any is pinned.
func (p pins) check(w workload, seed uint64, got string) error {
	key := w.pinKey(seed)
	want, ok := p[w.Name][key]
	if ok && want != got {
		return fmt.Errorf("%s %s: output digest %.12s, pinned %.12s", w.Name, key, got, want)
	}
	return nil
}

func (p pins) set(w workload, seed uint64, d string) {
	if p[w.Name] == nil {
		p[w.Name] = map[string]string{}
	}
	p[w.Name][w.pinKey(seed)] = d
}

func (p pins) write(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sections splits chirpexp's stdout into each experiment's lines,
// between its "== id: … ==" header and its footer.
func sections(stdout []byte) map[string][]string {
	out := map[string][]string{}
	cur := ""
	for _, line := range strings.Split(string(stdout), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			if id, _, ok := strings.Cut(rest, ":"); ok {
				cur = id
				continue
			}
		}
		if strings.HasPrefix(line, "-- "+cur+" done in ") {
			cur = ""
			continue
		}
		if cur != "" {
			out[cur] = append(out[cur], line)
		}
	}
	return out
}

// csvRows parses an experiment's "benchmark,<series>…" CSV into
// workload → series → cell.
func csvRows(lines []string) map[string]map[string]string {
	out := map[string]map[string]string{}
	var header []string
	for _, line := range lines {
		if strings.HasPrefix(line, "benchmark,") {
			header = strings.Split(line, ",")
			continue
		}
		if header == nil || line == "" {
			continue
		}
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			continue
		}
		row := map[string]string{}
		for i := 1; i < len(cells); i++ {
			row[header[i]] = cells[i]
		}
		out[cells[0]] = row
	}
	return out
}

// tableCell returns column col of the table row whose first keyFields
// whitespace-separated fields, space-joined, equal key.
func tableCell(lines []string, key string, keyFields, col int) (string, bool) {
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) > col && len(f) >= keyFields && strings.Join(f[:keyFields], " ") == key {
			return f[col], true
		}
	}
	return "", false
}

// passResult holds one traced pass's per-(workload, policy) values:
// MPKI for TLB-only passes, IPC for timing passes.
type passResult struct {
	Pass pass
	Vals [][]float64
}

// crossCheck compares the traced run's values with what chirpexp
// printed for the same population: per-workload CSV cells where the
// experiment prints them, the table cells its means round to
// elsewhere. A mismatch means the pass table here no longer mirrors
// internal/experiments (or a layer computes something else in-process
// than in the binary).
func crossCheck(stdout []byte, ws []*workloads.Workload, results []passResult) error {
	secs := sections(stdout)
	var errs []error
	mismatch := func(exp, where, got, want string) {
		errs = append(errs, fmt.Errorf("%s %s: traced %s, chirpexp printed %s", exp, where, got, want))
	}
	byExp := map[string][]passResult{}
	var order []string
	for _, r := range results {
		if byExp[r.Pass.Exp] == nil {
			order = append(order, r.Pass.Exp)
		}
		byExp[r.Pass.Exp] = append(byExp[r.Pass.Exp], r)
	}
	for _, exp := range order {
		lines, ok := secs[exp]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: no output section", exp))
			continue
		}
		rs := byExp[exp]
		switch exp {
		case "fig7", "fig8":
			rows := csvRows(lines)
			r := rs[0]
			for i, w := range ws {
				for j, p := range r.Pass.Policies {
					v := r.Vals[i][j]
					if exp == "fig8" {
						// Fig. 8 prints each policy's IPC over LRU's.
						v = 0
						if base := r.Vals[i][0]; base > 0 {
							v = r.Vals[i][j] / base
						}
					}
					got := fmt.Sprintf("%.6g", v)
					if want := rows[w.Name][p.Name]; got != want {
						mismatch(exp, w.Name+"/"+p.Name, got, want)
					}
				}
			}
		case "fig6", "fig9":
			col := 1 // fig6: variant, measured, …
			if exp == "fig9" {
				col = 2 // fig9: budget, counters, MPKI vs LRU, …
			}
			base := stats.Mean(column(rs[0].Vals, 0))
			for _, r := range rs[1:] {
				got := fmt.Sprintf("%+.2f%%", stats.Reduction(base, stats.Mean(column(r.Vals, 0))))
				if want, ok := tableCell(lines, r.Pass.Label, 1, col); !ok || got != want {
					mismatch(exp, r.Pass.Label, got, want)
				}
			}
		case "baselines":
			r := rs[0]
			for j, p := range r.Pass.Policies {
				got := fmt.Sprintf("%.3f", stats.Mean(column(r.Vals, j)))
				if want, ok := tableCell(lines, p.Name, 1, 1); !ok || got != want {
					mismatch(exp, p.Name, got, want)
				}
			}
		case "prefetch":
			for _, r := range rs {
				got := fmt.Sprintf("%.3f", stats.Mean(column(r.Vals, 0)))
				if want, ok := tableCell(lines, r.Pass.Label, 2, 2); !ok || got != want {
					mismatch(exp, r.Pass.Label, got, want)
				}
			}
		default:
			errs = append(errs, fmt.Errorf("%s: no cross-check", exp))
		}
	}
	return errors.Join(errs...)
}

// column returns policy j's values across the population.
func column(vals [][]float64, j int) []float64 {
	out := make([]float64, len(vals))
	for i := range vals {
		out[i] = vals[i][j]
	}
	return out
}
