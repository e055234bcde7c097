package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/exp"
	"paramdbt/internal/learn"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
	"paramdbt/internal/serve"
	"paramdbt/internal/workload"
)

// sizing holds the workload sizes. The product values are the ones
// BENCHMARK.json's numbers are measured at; the test shrinks them.
type sizing struct {
	steadyScale   int
	coldFuncs     int
	validateFuncs int
	setups        int           // set-ups per untraced run; setup_s is their median
	armPasses     int           // least passes per arm in the traced run when -passes is unset
	driveBatch    time.Duration // least duration of one direct-drive batch
}

var productSizing = sizing{steadyScale: 10, coldFuncs: 120, validateFuncs: 30, setups: 3, armPasses: 3, driveBatch: 10 * time.Millisecond}

// Backends are named explicitly everywhere so PARAMDBT_BACKEND cannot
// change what a run measures.
var (
	x86  = backend.MustLookup("x86")
	risc = backend.MustLookup("risc")
)

// wideBases are the profiles the generated programs of cold and
// validate are derived from: the four statically largest, most
// operator-diverse ones.
var wideBases = []string{"gcc", "xalancbmk", "perlbench", "gobmk"}

var fullParam = core.Config{Opcode: true, AddrMode: true}

// program is one guest image with the engine config it runs under and
// the reference interpreter's answer for it.
type program struct {
	name      string
	comp      *minic.Compiled
	cfg       dbt.Config
	wantR0    uint32
	wantInsts uint64
}

// serveFixture is the in-process daemon and its closed-loop clients.
type serveFixture struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*http.Client
}

func (s *serveFixture) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.ts.Close()
	s.srv.Close()
}

type fixture struct {
	workload string
	progs    []*program // seed-shuffled order, the same on every pass
	rules    int        // core.rules_parameterized
	// riscRules are the steady arms' own stores: dbt.New rekeys a store
	// to its backend, so arms on another backend must not share the
	// product arm's stores. Traced runs only.
	riscRules map[string]*rule.Store
	serve     *serveFixture // serve: the product server
	noShadow  *serveFixture // serve, traced runs: the differential server
}

func (f *fixture) close() {
	if f.serve != nil {
		f.serve.close()
	}
	if f.noShadow != nil {
		f.noShadow.close()
	}
}

// setupOpts says what a set-up builds beyond the timed workload's needs.
type setupOpts struct {
	traced   bool // build what the direct drives and arms need too
	selftest bool // corrupt one expected value
}

// corpus compiles (and, with learning, learns) the twelve paper
// workloads, with a span around each exported call.
func corpus(tr *tracer, parent, scale int, withRules bool) (*exp.Corpus, error) {
	c := &exp.Corpus{
		Names:  workload.Names(),
		Comp:   map[string]*minic.Compiled{},
		Stores: map[string]*rule.Store{},
		Learn:  map[string]learn.Stats{},
		Scale:  scale,
	}
	for _, b := range workload.All(scale) {
		s := tr.begin("minic.compile", parent, -1)
		comp, err := minic.Compile(b.Prog)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		c.Comp[b.Name] = comp
		if withRules {
			st := rule.NewStore()
			s = tr.begin("learn.from_compiled", parent, -1)
			c.Learn[b.Name] = learn.FromCompiled(comp, st)
			tr.end(s)
			c.Stores[b.Name] = st
		}
	}
	return c, nil
}

func parameterize(tr *tracer, parent int, union *rule.Store) *rule.Store {
	s := tr.begin("core.parameterize", parent, -1)
	out, _ := core.Parameterize(union, fullParam)
	tr.end(s)
	return out
}

// wideProfile derives a generated program's profile from the seed: every
// function is hot and runs once, so nearly every block is translated
// and executed a handful of times.
func wideProfile(base workload.Profile, seed int64, funcs int) workload.Profile {
	p := base
	p.Name = base.Name + "-wide"
	p.Seed = base.Seed*1_000_003 + seed
	p.Funcs, p.HotFuncs, p.HotIters, p.InnerIter = funcs, funcs, 1, 2
	return p
}

func profileByName(name string) workload.Profile {
	for _, p := range workload.Profiles {
		if p.Name == name {
			return p
		}
	}
	panic("bench: unknown profile " + name)
}

// setup builds one workload's fixtures from nothing and computes the
// reference answers. Together with the warm-up pass that follows it,
// its wall time is one setup_s sample.
func setup(name string, seed int64, sz sizing, opt setupOpts, tr *tracer) (*fixture, error) {
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	fx := &fixture{workload: name}
	var err error
	switch name {
	case "steady":
		err = fx.setupSteady(sz, opt, tr, root)
	case "cold":
		err = fx.setupWide(seed, sz.coldFuncs, dbt.Config{DelegateFlags: true, Backend: x86}, tr, root)
	case "validate":
		err = fx.setupWide(seed, sz.validateFuncs, dbt.Config{DelegateFlags: true, Backend: risc, Peephole: true}, tr, root)
	case "serve":
		err = fx.setupServe(opt, tr, root)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		fx.close()
		return nil, err
	}
	for _, p := range fx.progs {
		s := tr.begin("guest.run_interp", root, -1)
		st, err := p.comp.RunInterp(1 << 40)
		tr.end(s)
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("reference interpreter on %s: %w", p.name, err)
		}
		p.wantR0, p.wantInsts = st.R[0], st.InstCount
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(fx.progs), func(i, j int) {
		fx.progs[i], fx.progs[j] = fx.progs[j], fx.progs[i]
	})
	if opt.selftest {
		fx.progs[0].wantR0 ^= 1
	}
	return fx, nil
}

func (fx *fixture) setupSteady(sz sizing, opt setupOpts, tr *tracer, root int) error {
	c, err := corpus(tr, root, sz.steadyScale, true)
	if err != nil {
		return err
	}
	if opt.traced {
		fx.riscRules = map[string]*rule.Store{}
	}
	for _, n := range c.Names {
		rules := parameterize(tr, root, c.Union(c.Others(n)))
		fx.rules += rules.Len()
		fx.progs = append(fx.progs, &program{name: n, comp: c.Comp[n],
			cfg: dbt.Config{Rules: rules, DelegateFlags: true, Backend: x86}})
		if opt.traced {
			fx.riscRules[n], _ = core.Parameterize(c.Union(c.Others(n)), fullParam)
		}
	}
	return nil
}

func (fx *fixture) setupWide(seed int64, funcs int, cfg dbt.Config, tr *tracer, root int) error {
	c, err := corpus(tr, root, 1, true)
	if err != nil {
		return err
	}
	cfg.Rules = parameterize(tr, root, c.Union(c.Names))
	fx.rules = cfg.Rules.Len()
	for _, base := range wideBases {
		p := wideProfile(profileByName(base), seed, funcs)
		s := tr.begin("workload.generate_compile", root, -1)
		comp, err := minic.Compile(workload.Generate(p, 1))
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fx.progs = append(fx.progs, &program{name: p.Name, comp: comp, cfg: cfg})
	}
	return nil
}

func (fx *fixture) setupServe(opt setupOpts, tr *tracer, root int) error {
	// The bench's own compile of the suite is the oracle's input (the
	// server builds its own corpus); the traced run also learns rules
	// from it so the direct drives see the server's rule table.
	c, err := corpus(tr, root, 1, opt.traced)
	if err != nil {
		return err
	}
	var cfg dbt.Config
	if opt.traced {
		cfg = dbt.Config{Rules: parameterize(tr, root, c.Union(c.Names)), DelegateFlags: true, Backend: x86}
		fx.rules = cfg.Rules.Len()
	}
	for _, n := range c.Names {
		fx.progs = append(fx.progs, &program{name: n, comp: c.Comp[n], cfg: cfg})
	}
	if fx.serve, err = newServeFixture(serve.Config{Backend: x86}, tr, root); err != nil {
		return err
	}
	if opt.traced {
		fx.noShadow, err = newServeFixture(serve.Config{Backend: x86, NoShadow: true}, nil, -1)
	}
	return err
}

// serveClients is the closed-loop client count: the ISSUE's two, never
// more than the box has CPUs.
func serveClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func newServeFixture(cfg serve.Config, tr *tracer, parent int) (*serveFixture, error) {
	s := tr.begin("serve.new_server", parent, -1)
	srv, err := serve.NewServer(cfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	sf := &serveFixture{srv: srv, ts: httptest.NewServer(srv.Handler())}
	for i := 0; i < serveClients(); i++ {
		sf.clients = append(sf.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		})
	}
	return sf, nil
}
