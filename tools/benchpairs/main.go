// Command benchpairs is the A/B procedure a performance claim needs on
// a small, noisy machine (choosing-metrics §8): it builds ./bench from
// an export of a base revision (`git archive <base> | tar -x` into a
// temporary directory, so it needs no worktree) and from the working
// tree, runs the two binaries on one workload in N pairs, alternating
// which side goes first, and prints every pair and, per end-to-end
// metric, each side's median and quartiles, the median of the per-pair
// ratios change/base, and the pairs the change won. The machine's speed
// drifts in waves minutes long; a ratio taken within one pair cancels
// most of it, a median over each side's runs does not. What a pair does
// not cancel is an order effect (the side that runs second may find a
// warmer or a more crowded machine), so the ratio median is also given
// over the change-first and the base-first pairs apart, and a metric
// whose two halves point in opposite directions is flagged: its verdict
// says more about run order than about the change.
//
//	go run ./tools/benchpairs -base HEAD~1 -workload steady -n 10
//
// It reads BENCHMARK.json for the metric names, their better direction,
// their bounds and the run length, and only reads ./bench's result line;
// nothing under bench/ is touched. Exit status is 0 whatever the
// numbers say: the tool reports, the reader judges.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last stdout line of `bench -workload W`.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "HEAD", "revision the change is compared against")
	workload := flag.String("workload", "steady", "BENCHMARK.json workload to run")
	n := flag.Int("n", 10, "pairs to run")
	seconds := flag.Float64("seconds", 0, "run length per side (default: BENCHMARK.json run_seconds)")
	seed := flag.Int64("seed", 1, "workload seed, the same on both sides")
	flag.Parse()
	if err := run(*base, *workload, *n, *seconds, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(base, workload string, n int, seconds float64, seed int64) error {
	var sp spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds <= 0 {
		seconds = sp.RunSeconds
	}

	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "base")
	if err := export(base, tree); err != nil {
		return err
	}

	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	// Each binary runs from the tree it was built from, as the driver
	// runs `go run ./bench` from its checkout.
	sides := [2]struct{ name, dir, bin string }{
		{"base", tree, filepath.Join(tmp, "bench-base")},
		{"change", cwd, filepath.Join(tmp, "bench-change")},
	}
	for _, s := range sides {
		cmd := exec.Command("go", "build", "-o", s.bin, "./bench")
		cmd.Dir = s.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building %s: %v\n%s", s.name, err, out)
		}
	}

	fmt.Printf("benchpairs: %s vs working tree, workload %s, %d pairs of %gs, seed %d\n", base, workload, n, seconds, seed)
	values := map[string]*[2][]float64{} // metric -> per side, one value per pair
	for _, m := range sp.EndToEnd {
		values[m.Name] = &[2][]float64{}
	}
	var failed, attempted [2]int
	for pair := 0; pair < n; pair++ {
		order := [2]int{0, 1}
		if pair%2 == 1 {
			order = [2]int{1, 0}
		}
		var rs [2]result
		for _, side := range order {
			s := sides[side]
			cmd := exec.Command(s.bin, "-workload", workload, "-trace", "0",
				"-seconds", fmt.Sprint(seconds), "-seed", fmt.Sprint(seed))
			cmd.Dir = s.dir
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("pair %d, %s: %v\n%s", pair+1, s.name, err, out)
			}
			if err := json.Unmarshal(lastLine(out), &rs[side]); err != nil {
				return fmt.Errorf("pair %d, %s: result line: %v", pair+1, s.name, err)
			}
			failed[side] += rs[side].Failed
			attempted[side] += rs[side].Attempted
		}
		fmt.Printf("pair %2d (%s first):", pair+1, sides[order[0]].name)
		for _, m := range sp.EndToEnd {
			b, c := rs[0].Metrics[m.Name].Value, rs[1].Metrics[m.Name].Value
			values[m.Name][0] = append(values[m.Name][0], b)
			values[m.Name][1] = append(values[m.Name][1], c)
			fmt.Printf("  %s %.4g→%.4g (%+.1f%%)", m.Name, b, c, pct(b, c))
		}
		fmt.Println()
	}

	fmt.Printf("\n%-12s %-8s %31s %31s %8s %27s %17s  %s\n", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "change",
		"pair ratio median [q1, q3]", "change/base first", "pairs won/lost/tied")
	for _, m := range sp.EndToEnd {
		v := values[m.Name]
		won, lost, tied := 0, 0, 0
		var ratios []float64
		var byOrder [2][]float64 // ratios of the base-first and the change-first pairs
		for i := range v[0] {
			switch d := v[1][i] - v[0][i]; {
			case d == 0:
				tied++
			case (d > 0) == (m.Better == "higher"):
				won++
			default:
				lost++
			}
			if v[0][i] != 0 {
				r := v[1][i] / v[0][i]
				ratios = append(ratios, r)
				byOrder[i%2] = append(byOrder[i%2], r)
			}
		}
		bq, cq, rq := quartiles(v[0]), quartiles(v[1]), quartiles(ratios)
		cf, bf, disagree := orderHalves(byOrder)
		order := ""
		if disagree {
			order = "  ORDER: halves disagree"
		}
		fmt.Printf("%-12s %-8s %12.4g [%7.4g, %7.4g] %12.4g [%7.4g, %7.4g] %+7.1f%% %9.4f [%6.4f, %6.4f] %8.4f %8.4f  %d/%d/%d (%s is better, bound %g)%s\n",
			m.Name, m.Unit, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], pct(bq[1], cq[1]), rq[1], rq[0], rq[2], cf, bf, won, lost, tied, m.Better, m.Bound, order)
	}
	for i, s := range sides {
		fmt.Printf("fail share %s: %d/%d\n", s.name, failed[i], attempted[i])
	}
	return nil
}

// export writes the tree of revision rev into dir: git archive piped
// into tar.
func export(rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	var archiveErr, untarErr bytes.Buffer
	archive.Stderr, untar.Stderr = &archiveErr, &untarErr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		untar.Wait() // reap tar; the archive's failure is the one to report
		return fmt.Errorf("git archive %s: %v\n%s", rev, err, archiveErr.Bytes())
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("tar -x of %s: %v\n%s", rev, err, untarErr.Bytes())
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = []byte(l)
		}
	}
	return last
}

func pct(base, change float64) float64 {
	if base == 0 {
		return 0
	}
	return (change - base) / base * 100
}

// orderHalves returns the median change/base ratio over the
// change-first pairs and over the base-first pairs (byOrder holds the
// base-first ratios, then the change-first ones), and whether the two
// point in opposite directions: one half has the change ahead, the other
// behind.
func orderHalves(byOrder [2][]float64) (changeFirst, baseFirst float64, disagree bool) {
	if len(byOrder[0]) == 0 || len(byOrder[1]) == 0 {
		return 0, 0, false
	}
	baseFirst, changeFirst = quartiles(byOrder[0])[1], quartiles(byOrder[1])[1]
	return changeFirst, baseFirst, (changeFirst-1)*(baseFirst-1) < 0
}

// quartiles returns the first quartile, median and third quartile by
// linear interpolation between order statistics (zeros for no values).
func quartiles(vs []float64) [3]float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	var q [3]float64
	if len(s) == 0 {
		return q
	}
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return q
}
