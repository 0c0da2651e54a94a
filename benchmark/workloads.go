package main

import "partree/internal/phys"

// serveKind is the traffic shape of a serving section.
type serveKind int

const (
	// serveBuild: open loop, Poisson arrivals of one-shot POST /v1/build
	// requests against one partreed; latency is timed from the due time.
	serveBuild serveKind = iota
	// serveSession: closed loop, nproc concurrent POST /v1/session
	// streams; one request is one streamed step.
	serveSession
	// serveCluster: closed loop, one client through partree-router in
	// front of two partreed shards.
	serveCluster
)

func (k serveKind) String() string {
	return [...]string{"build", "session", "cluster"}[k]
}

// buildRate is the open loop's offered load in requests per second.
const buildRate = 30

// workload is one row of the benchmark: the inputs of the three surfaces
// a user of this repository sees — a library tree build, an application
// time step, a served request — and how the measured seconds are split
// between them. Every run drives all three, because the driver reads
// every end-to-end metric from every workload (README, "Where this
// departs from the issue"); the surface a workload is named after gets
// most of the time at the inputs that stress it, and the three traffic
// shapes are dealt out so that each is measured on two mass models and
// two sizes.
type workload struct {
	name string
	// model is the mass distribution of every body set the workload
	// generates, in process and on the servers.
	model phys.Model
	treeN int // bodies per library tree build
	appN  int // bodies in the application simulation
	kind  serveKind
	srvN  int // bodies per served build or session
	// share of the measured seconds: tree builds, application steps,
	// served requests.
	share [3]float64
}

var workloads = []workload{
	{name: "tree-large", model: phys.ModelPlummer, treeN: 200000, appN: 4096,
		kind: serveSession, srvN: 100000, share: [3]float64{0.50, 0.25, 0.25}},
	{name: "tree-small", model: phys.ModelHierarchical, treeN: 10000, appN: 4096,
		kind: serveBuild, srvN: 10000, share: [3]float64{0.50, 0.25, 0.25}},
	{name: "app-step", model: phys.ModelDisk, treeN: 16384, appN: 16384,
		kind: serveCluster, srvN: 16384, share: [3]float64{0.15, 0.60, 0.25}},
	{name: "serve-build", model: phys.ModelUniform, treeN: 20000, appN: 4096,
		kind: serveBuild, srvN: 20000, share: [3]float64{0.15, 0.25, 0.60}},
	{name: "serve-session", model: phys.ModelPlummer, treeN: 50000, appN: 4096,
		kind: serveSession, srvN: 50000, share: [3]float64{0.15, 0.25, 0.60}},
	{name: "serve-cluster", model: phys.ModelTwoClusters, treeN: 50000, appN: 4096,
		kind: serveCluster, srvN: 50000, share: [3]float64{0.15, 0.25, 0.60}},
}

// tracedSrvN caps the body count of the traffic shapes the traced pass
// adds to the workload's own: it reports every layer, so it drives all
// three, and 30 one-shot builds a second must stay well below what one
// daemon can serve.
const tracedSrvN = 20000

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// toy shrinks a workload to smoke-test size (n <= 2000).
func (w workload) toy() workload {
	w.treeN, w.appN, w.srvN = min(w.treeN, 2000), min(w.appN, 2000), min(w.srvN, 2000)
	return w
}
