package host

// RunTwin exposes the twin harness to the external differential test,
// which needs packages (the engine, the corpus) that import this one.
var RunTwin = runTwin
