package dbt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guard/faultinject"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

// These tests cover the shared translation service (service.go,
// docs/SERVING.md). They run under `make test-serve`, including a -race
// arm — keep the TestService/TestAdaptive/TestStoreReseed name
// prefixes, they are the gate's -run pattern.

// serveRules learns and parameterizes the shared store the service
// tests run over (full parameterization, the serving default).
func serveRules(t *testing.T) *rule.Store {
	t.Helper()
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	return par
}

// startTenant builds an engine over a fresh load of c attached to svc
// (any extra knobs via cfg; Rules/Service are filled in here).
func startTenant(t *testing.T, c *minic.Compiled, svc *Service, cfg Config) *Engine {
	t.Helper()
	cfg.Rules = svc.Rules()
	cfg.Service = svc
	cfg.DelegateFlags = svc.tr.opt.DelegateFlags
	return startEngine(t, c, cfg)
}

// TestServiceSingleFlight is the dedupe scenario: two tenants
// demand-missing the same pc concurrently must produce exactly one
// translation — the single-flight leader counts it, the duplicate
// adopts it — so the tenants' summed dbt.translations deltas equal the
// work actually done.
func TestServiceSingleFlight(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	par := serveRules(t)
	svc := NewService(ServiceConfig{Rules: par, DelegateFlags: true})
	defer svc.Close()

	e1 := startTenant(t, c, svc, Config{})
	e2 := startTenant(t, c, svc, Config{})
	if e1.svc == nil || e2.svc == nil {
		t.Fatal("tenants did not attach")
	}
	if e1.tnt.snap != e2.tnt.snap {
		t.Fatal("identical programs did not share a code snapshot")
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, e := range []*Engine{e1, e2} {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			<-start
			tb, err := e.block(env.CodeBase, false)
			if err != nil {
				t.Errorf("block: %v", err)
				return
			}
			if tb == nil {
				t.Error("block returned nil")
			}
		}(e)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	sum := e1.LiveStats().Translations + e2.LiveStats().Translations
	if sum != 1 {
		t.Fatalf("summed tenant translations = %d, want exactly 1", sum)
	}
	st := svc.Stats()
	if st.Translations != 1 {
		t.Fatalf("service translations = %d, want 1", st.Translations)
	}
	if st.Requests != 2 || st.CacheHits+st.DedupHits != 1 {
		t.Fatalf("requests=%d cache=%d dedup=%d, want 2 requests and 1 deduplicated",
			st.Requests, st.CacheHits, st.DedupHits)
	}

	// Both tenants then run the adopted translations to completion and
	// the leader-only accounting invariant holds for the whole run.
	for i, e := range []*Engine{e1, e2} {
		if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		sameResult(t, want, e.GuestState(), "single-flight tenant")
	}
	sum = e1.LiveStats().Translations + e2.LiveStats().Translations
	if got := svc.Stats().Translations; sum != got {
		t.Fatalf("summed tenant translations = %d, service performed %d", sum, got)
	}
}

// TestServiceTenantsShareWork checks the sharing win: N tenants running
// the same program through one service translate each block once in
// total, strictly less than N independent engines would, and every
// request is exactly one of a cache hit, a dedup hit or a translation.
func TestServiceTenantsShareWork(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	par := serveRules(t)

	// Tenants translate first; so does the independent engine they are
	// compared against.
	solo, soloStats := runProgram(t, c, Config{Rules: par, DelegateFlags: true, TranslateFirst: true})
	sameResult(t, want, solo, "solo baseline")

	svc := NewService(ServiceConfig{Rules: par, DelegateFlags: true})
	defer svc.Close()
	const tenants = 4
	var wg sync.WaitGroup
	engines := make([]*Engine, tenants)
	for i := 0; i < tenants; i++ {
		engines[i] = startTenant(t, c, svc, Config{})
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
				t.Errorf("tenant run: %v", err)
			}
		}(engines[i])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var sum uint64
	for _, e := range engines {
		sameResult(t, want, e.GuestState(), "shared tenant")
		sum += e.LiveStats().Translations
	}
	st := svc.Stats()
	if sum != st.Translations {
		t.Fatalf("summed tenant translations = %d, service performed %d", sum, st.Translations)
	}
	if st.Requests != st.CacheHits+st.DedupHits+st.Translations {
		t.Fatalf("requests=%d != cache %d + dedup %d + translations %d",
			st.Requests, st.CacheHits, st.DedupHits, st.Translations)
	}
	n := 0
	svc.cache.Range(func(any, any) bool { n++; return true })
	if st.Translations != uint64(n) {
		t.Fatalf("service translations = %d, %d prototypes cached", st.Translations, n)
	}
	independent := uint64(tenants) * soloStats.Translations
	if st.Translations >= independent {
		t.Fatalf("service translated %d blocks, %d independent engines would translate %d",
			st.Translations, tenants, independent)
	}
	if st.DedupRate() == 0 {
		t.Fatalf("no dedupe recorded across %d identical tenants: %+v", tenants, st)
	}
}

// TestServiceOwnsNoGoroutines: the service translates on its tenants'
// goroutines, so building it, serving two concurrent tenants and closing
// it leave the goroutine count where it was.
func TestServiceOwnsNoGoroutines(t *testing.T) {
	c := compileT(t, testProgram())
	par := serveRules(t)

	before := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		for i := 0; runtime.NumGoroutine() > before; i++ {
			if i == 200 {
				t.Fatalf("%s: %d goroutines, %d before NewService", what, runtime.NumGoroutine(), before)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	svc := NewService(ServiceConfig{Rules: par, DelegateFlags: true})
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewService started %d goroutines", n-before)
	}
	engines := []*Engine{startTenant(t, c, svc, Config{}), startTenant(t, c, svc, Config{})}
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
				t.Errorf("tenant run: %v", err)
			}
		}(e)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	settled("after the run")
	svc.Close()
	settled("after Close")
}

// TestServiceClosedFallsBack: attach against a closed service is
// refused, and a service closed after attach turns requests into
// ErrServiceClosed — both leave the tenant translating locally.
func TestServiceClosedFallsBack(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	par := serveRules(t)

	closed := NewService(ServiceConfig{Rules: par, DelegateFlags: true})
	closed.Close()
	e := startTenant(t, c, closed, Config{})
	if e.svc != nil {
		t.Fatal("tenant attached to a closed service")
	}
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "refused tenant")

	svc := NewService(ServiceConfig{Rules: par, DelegateFlags: true})
	e2 := startTenant(t, c, svc, Config{})
	if e2.svc == nil {
		t.Fatal("tenant did not attach")
	}
	svc.Close()
	st, err := e2.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e2.GuestState(), "tenant outliving service")
	if st.Translations == 0 {
		t.Fatal("tenant of a closed service translated nothing locally")
	}
}

// TestServicePurgeOnQuarantine: a tenant's shadow layer catching a
// corrupted rule must also evict the service's prototypes built from it
// (the shared store quarantine keeps it out of fresh ones), so a second
// tenant runs clean.
func TestServicePurgeOnQuarantine(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	par := serveRules(t)
	bad := corruptUsedAddRule(t, c, par)

	svc := NewService(ServiceConfig{Rules: par, DelegateFlags: true})
	defer svc.Close()
	e1 := startTenant(t, c, svc, Config{ShadowRate: 1})
	if e1.svc == nil {
		t.Fatal("tenant did not attach")
	}
	st1, err := e1.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e1.GuestState(), "diverging tenant recovered")
	if st1.Divergences == 0 || !par.IsQuarantined(bad) {
		t.Fatalf("corrupted rule not caught: %+v", st1)
	}
	if svc.Stats().Purged == 0 {
		t.Fatal("quarantine purged no service prototypes")
	}
	svc.cache.Range(func(_, v any) bool {
		for _, tm := range v.(*tblock).rules {
			if tm == bad {
				t.Fatal("quarantined rule still embedded in a cached prototype")
			}
		}
		return true
	})

	e2 := startTenant(t, c, svc, Config{ShadowRate: 1})
	st2, err := e2.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e2.GuestState(), "post-quarantine tenant")
	if st2.Divergences != 0 {
		t.Fatalf("second tenant diverged %d times after the purge", st2.Divergences)
	}
}

// TestServiceIncompatibleTenant: tenants whose translation shape or
// fault plan disagrees with the service must be refused at attach and
// run correctly on the local path — one case per codegen knob, so a knob
// that stops reaching the attach comparison fails here by name.
func TestServiceIncompatibleTenant(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	par := serveRules(t)
	svc := NewService(ServiceConfig{Rules: par, DelegateFlags: true})
	defer svc.Close()

	with := func(f func(*Config)) Config {
		cfg := Config{Rules: par, DelegateFlags: true, Service: svc}
		f(&cfg)
		return cfg
	}
	refused := []struct {
		name string
		cfg  Config
	}{
		{"DelegateFlags", with(func(c *Config) { c.DelegateFlags = false })},
		{"ManualABI", with(func(c *Config) { c.ManualABI = true })},
		{"Peephole", with(func(c *Config) { c.Peephole = true })},
		{"different store", with(func(c *Config) { c.Rules = serveRules(t) })},
		{"fault plan", with(func(c *Config) { c.Faults = faultinject.New(faultinject.Plan{}) })},
	}
	for _, tc := range refused {
		e := startEngine(t, c, tc.cfg)
		if e.svc != nil {
			t.Fatalf("%s: tenant attached", tc.name)
		}
		if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameResult(t, want, e.GuestState(), tc.name)
	}
	if st := svc.Stats(); st.Tenants != 0 || st.Requests != 0 {
		t.Fatalf("refused tenants still reached the service: %+v", st)
	}
}

// TestConfigFieldsClassified pins the attach gate against drift: every
// Config field is either a codegen knob (a codegenOptions field, which
// codegenOf demonstrably copies), part of the translator's identity
// (compared through translatorID), or on the per-engine list below. A
// new field fails here until someone decides which it is.
func TestConfigFieldsClassified(t *testing.T) {
	knobs := map[string]bool{}
	ot := reflect.TypeOf(codegenOptions{})
	for i := 0; i < ot.NumField(); i++ {
		knobs[ot.Field(i).Name] = true
	}
	identity := map[string]bool{"Rules": true, "Backend": true}
	perEngine := map[string]bool{
		"TranslateWorkers": true, "TranslateFirst": true, "NoChain": true, "HotThreshold": true,
		"TraceBudget": true, "SyncTraces": true, "TraceBlock": true, "Metrics": true, "Trace": true,
		"ShadowRate": true, "ShadowSeed": true, "ShadowHalfLife": true,
		"Service": true, "Faults": true,
	}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		classes := 0
		for _, in := range []bool{knobs[name], identity[name], perEngine[name]} {
			if in {
				classes++
			}
		}
		if classes != 1 {
			t.Errorf("Config.%s is in %d classes, want exactly 1: add it to codegenOptions (and codegenOf) if it changes translation output, else to the per-engine list", name, classes)
			continue
		}
		if !knobs[name] {
			continue
		}
		delete(knobs, name)
		var cfg Config
		switch f := reflect.ValueOf(&cfg).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Config.%s: unhandled knob kind %s", name, f.Kind())
		}
		if codegenOf(&cfg) == codegenOf(&Config{}) {
			t.Errorf("codegenOf ignores Config.%s", name)
		}
	}
	for k := range knobs {
		t.Errorf("codegenOptions.%s has no Config field", k)
	}
}

// TestConfigFieldsHaveSetters is the knob census: every dbt.Config
// field must be set by some non-test .go file outside internal/dbt,
// every serve.Config field by one outside internal/serve, and every
// core.Config field by one outside internal/core. A knob only tests set
// is a knob to delete, together with the code that honours it. A setter
// is found syntactically: a key of a composite literal of the struct's
// type, or the selector of an assignment's left-hand side in a file
// importing the struct's package.
func TestConfigFieldsHaveSetters(t *testing.T) {
	const root = "../.."
	var dbtFields []string
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		dbtFields = append(dbtFields, ct.Field(i).Name)
	}
	for _, c := range []struct {
		pkg, dir string
		fields   []string
	}{
		{"paramdbt/internal/dbt", "internal/dbt", dbtFields},
		{"paramdbt/internal/serve", "internal/serve", structFields(t, filepath.Join(root, "internal/serve/serve.go"), "Config")},
		{"paramdbt/internal/core", "internal/core", structFields(t, filepath.Join(root, "internal/core/param.go"), "Config")},
	} {
		set := configSetters(t, root, c.pkg, c.dir)
		for _, f := range c.fields {
			if !set[f] {
				t.Errorf("%s.Config.%s is set by no non-test code outside %s: delete it or give it a caller", path.Base(c.pkg), f, c.dir)
			}
		}
	}
}

// structFields lists the field names of the named struct type declared
// in file.
func structFields(t *testing.T, file, name string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, sp := range g.Specs {
			ts, ok := sp.(*ast.TypeSpec)
			if !ok || ts.Name.Name != name {
				continue
			}
			var out []string
			for _, fl := range ts.Type.(*ast.StructType).Fields.List {
				for _, n := range fl.Names {
					out = append(out, n.Name)
				}
			}
			return out
		}
	}
	t.Fatalf("%s declares no %s", file, name)
	return nil
}

// configSetters returns the Config field names that non-test .go files
// under root, outside skip, set: as keys of pkg.Config composite
// literals, or as assignment targets x.Field in files importing pkg.
func configSetters(t *testing.T, root, pkg, skip string) map[string]bool {
	t.Helper()
	set := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			rel, _ := filepath.Rel(root, p)
			hidden := rel != "." && strings.HasPrefix(d.Name(), ".")
			if rel == skip || hidden || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == pkg {
				name = path.Base(pkg)
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Config" {
					break
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != name {
					break
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestServiceValidationCountersVisible: the rewrite verdicts of
// service-translated prototypes must land on the Service's registry (the
// one /metrics serves), not on the tenant's registry, even though the
// tenant's own goroutine ran the translation as single-flight leader:
// the tenant counts verdicts only for blocks it translated locally.
func TestServiceValidationCountersVisible(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	par := serveRules(t)
	risc := backend.MustLookup("risc")
	svc := NewService(ServiceConfig{Rules: par, Backend: risc, DelegateFlags: true, Peephole: true})
	e := startTenant(t, c, svc, Config{Backend: risc, Peephole: true})
	if e.svc == nil {
		t.Fatal("tenant did not attach")
	}
	tst, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "validated tenant")
	svc.Close()
	st, reg := svc.Stats(), svc.Metrics()
	verdicts := reg.Counter(MetBlocksValidated).Value() + reg.Counter(MetValidateFallbacks).Value()
	if verdicts == 0 {
		t.Fatalf("service registry shows no validator verdicts for %d translations", st.Translations)
	}
	if tst.BlocksValidated+tst.ValidateFallbacks != 0 {
		t.Fatalf("tenant registry shows %d validator verdicts with no local translation",
			tst.BlocksValidated+tst.ValidateFallbacks)
	}
}

// TestServiceSMCDetach: the first guest code write makes the service's
// registered code snapshot stale, so the fence must detach the tenant;
// the run finishes on local translation with the patched semantics.
func TestServiceSMCDetach(t *testing.T) {
	p := smcProfile(t, "smc-cross")
	svc := NewService(ServiceConfig{})
	defer svc.Close()

	m := mem.New()
	if err := guest.LoadProgram(m, env.CodeBase, p.Prog); err != nil {
		t.Fatal(err)
	}
	e := New(m, Config{Service: svc})
	e.SetGuestState(&guest.State{Mem: m})
	if e.svc == nil {
		t.Fatal("tenant did not attach")
	}
	st, err := e.Run(env.CodeBase, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.GuestState().R[guest.R0]; got != 420 {
		t.Fatalf("r0 = %d, want 420", got)
	}
	if st.SMCInvalidations == 0 {
		t.Fatalf("no SMC invalidations recorded: %+v", st)
	}
	if e.svc != nil || e.tnt != nil {
		t.Fatal("self-modifying tenant still attached to the service")
	}
}

// TestAdaptiveShadowDecays: on a clean run the controller lowers the
// effective shadow rate as verified-clean executions accumulate, so the
// adaptive run checks strictly fewer blocks than the fixed-rate run
// while producing the same result.
func TestAdaptiveShadowDecays(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	par := serveRules(t)

	_, fixed := runProgram(t, c, Config{Rules: par, DelegateFlags: true, ShadowRate: 1})
	if fixed.ShadowChecks == 0 {
		t.Fatal("fixed-rate run recorded no shadow checks")
	}

	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	e := New(m, Config{
		Rules: par, DelegateFlags: true,
		ShadowRate: 1, ShadowHalfLife: 8,
	})
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	st, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "adaptive clean")
	if st.Divergences != 0 || st.RateSnaps != 0 {
		t.Fatalf("clean adaptive run snapped: %+v", st)
	}
	if st.ShadowChecks == 0 || st.ShadowChecks >= fixed.ShadowChecks {
		t.Fatalf("adaptive checks = %d, fixed = %d; want 0 < adaptive < fixed",
			st.ShadowChecks, fixed.ShadowChecks)
	}
	if now := e.ShadowRateNow(); now >= 1 || now < 0.01 {
		t.Fatalf("decayed rate = %v, want in [MinRate, 1)", now)
	}
}

// TestAdaptiveSnapsOnDivergence: a divergence (here from a corrupted
// rule) must snap the rate back to the base immediately — trust is
// earned slowly and lost instantly — while the run still recovers the
// correct result and quarantines the culprit.
func TestAdaptiveSnapsOnDivergence(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	par := serveRules(t)
	corruptUsedAddRule(t, c, par)

	e := startEngine(t, c, Config{
		Rules: par, DelegateFlags: true,
		ShadowRate: 1, ShadowHalfLife: 8,
	})
	st, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "adaptive corrupt recovered")
	if st.Divergences == 0 {
		t.Fatal("corrupted rule produced no divergences")
	}
	if st.RateSnaps == 0 {
		t.Fatalf("divergence did not snap the rate: %+v", st)
	}
	if par.QuarantineLen() == 0 {
		t.Fatal("nothing quarantined")
	}
}

// TestStoreReseedStress hammers the rule store's atomic retrieval
// index: tenants translate through the service on one backend while
// misconfigured tenants concurrently construct engines for the other
// backend over the same store (each construction rekeys the index). Run under -race via
// `make test-serve`.
func TestStoreReseedStress(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	par := serveRules(t)

	x86 := backend.MustLookup("x86")
	risc := backend.MustLookup("risc")
	svc := NewService(ServiceConfig{Rules: par, DelegateFlags: true, Backend: x86})
	defer svc.Close()

	// x86 tenants translate through the service while risc engines are
	// concurrently constructed over the same store (each New rekeys its
	// retrieval index) and refused by the x86 service.
	backends := []backend.Backend{x86, x86, x86, x86, risc, risc, risc, risc}
	engines := make([]*Engine, len(backends))
	var wg sync.WaitGroup
	for i, be := range backends {
		m := mem.New()
		if _, err := c.LoadGuest(m); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, be backend.Backend, m *mem.Memory) {
			defer wg.Done()
			e := New(m, Config{Rules: par, DelegateFlags: true, Backend: be, Service: svc})
			init := &guest.State{Mem: m}
			init.R[guest.SP] = env.StackTop
			e.SetGuestState(init)
			if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
				t.Error(err)
				return
			}
			engines[i] = e
		}(i, be, m)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, e := range engines {
		sameResult(t, want, e.GuestState(), "engine under reseed")
		if backends[i].ID() == risc.ID() && e.svc != nil {
			t.Fatal("risc tenant attached to the x86 service")
		}
	}
}
