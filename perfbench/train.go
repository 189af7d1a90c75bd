package main

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"spidercache/internal/cluster"
	"spidercache/internal/core"
	"spidercache/internal/dataset"
	"spidercache/internal/elastic"
	"spidercache/internal/experiments"
	"spidercache/internal/hnsw"
	"spidercache/internal/kvserver"
	"spidercache/internal/nn"
	"spidercache/internal/par"
	"spidercache/internal/policy"
	"spidercache/internal/telemetry"
	"spidercache/internal/tensor"
	"spidercache/internal/trainer"
)

// Training workload parameters, identical to what spidercache.TrainWith
// runs for WithPolicy(p), WithEpochs(trainEpochs), WithSeed(seed) on
// NewCIFAR10(1, seed): ResNet18 profile, batch 64, cache 0.2 of the
// dataset, one simulated GPU, pipelined IS, no prefetch, default elastic
// range, snapshot drift 0, all cores.
const (
	trainEpochs    = 5
	trainBatch     = 64
	trainCacheFrac = 0.2
	// clusterNodes daemons at clusterReplicas hold every sample the remote
	// workload writes back: nodeCapacity is above the dataset size.
	clusterNodes    = 2
	clusterReplicas = 2
	nodeCapacity    = 8192
	// trainSetups is how many times a training process sets up before it
	// reports the median set-up time; each measured run sets up once more.
	trainSetups = 4
)

type trainSpec struct {
	policy string
	remote bool // serve policy misses through a cluster.Client
}

// trainEnv is everything one training run needs before its first batch.
type trainEnv struct {
	ds  *dataset.Dataset
	pol policy.Policy

	nodes     []*cluster.Node
	nodeRegs  []*telemetry.Registry
	client    *cluster.Client
	clientReg *telemetry.Registry
}

// setupTrain builds the dataset, the policy and, for the remote workload,
// the cluster and its client. Untraced runs build the policy exactly as
// TrainWith does; traced runs build the same SpiderCache with the ANN
// index wrapped in a searcherProbe.
func setupTrain(spec trainSpec, seed uint64, tr *tracer) (*trainEnv, error) {
	ds, err := dataset.New(dataset.CIFAR10Like(1, seed))
	if err != nil {
		return nil, err
	}
	env := &trainEnv{ds: ds}
	capacity := int(float64(ds.Len()) * trainCacheFrac)
	if tr != nil && spec.policy == "spider" {
		env.pol, err = tracedSpider(ds, capacity, seed, tr)
	} else {
		env.pol, err = experiments.BuildPolicy(spec.policy, experiments.PolicyParams{
			Dataset: ds, Capacity: capacity, Epochs: trainEpochs, Seed: seed,
		})
	}
	if err != nil {
		return nil, err
	}
	if spec.remote {
		if err := env.startCluster(); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// tracedSpider mirrors experiments.BuildPolicy("spider", ...) and
// core.New's defaults, with the HNSW index seeded as core.New seeds it
// (Seed+101) and wrapped for timing.
func tracedSpider(ds *dataset.Dataset, capacity int, seed uint64, tr *tracer) (policy.Policy, error) {
	hc := hnsw.DefaultConfig()
	hc.Seed = seed + 101
	idx, err := hnsw.New(hc)
	if err != nil {
		return nil, err
	}
	return core.New(core.Options{
		Capacity:    capacity,
		Labels:      ds.Labels,
		Payloads:    ds.Payload,
		Elastic:     elastic.DefaultConfig(trainEpochs),
		TotalEpochs: trainEpochs,
		Searcher:    &searcherProbe{inner: idx, tr: tr},
		Seed:        seed,
	})
}

func (e *trainEnv) startCluster() error {
	for i := 0; i < clusterNodes; i++ {
		store := kvserver.DefaultConfig()
		store.Capacity = nodeCapacity
		reg := telemetry.NewRegistry()
		opts := cluster.NodeOptions{Listen: "127.0.0.1:0", Replicas: clusterReplicas, Store: store, Registry: reg}
		if i > 0 {
			opts.Seeds = []string{e.nodes[0].Addr()}
		}
		n, err := cluster.StartNode(opts)
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, n)
		e.nodeRegs = append(e.nodeRegs, reg)
	}
	// Joining is asynchronous through gossip; introduce the later nodes
	// to the first directly so replication covers every write from the
	// first batch on.
	addrs := []string{e.nodes[0].Addr()}
	for _, n := range e.nodes[1:] {
		e.nodes[0].Hello(n.Addr())
		addrs = append(addrs, n.Addr())
	}
	e.clientReg = telemetry.NewRegistry()
	c, err := cluster.New(cluster.WithSeeds(addrs...), cluster.WithReplicas(clusterReplicas),
		cluster.WithPoolSize(1), cluster.WithMetrics(e.clientReg))
	if err != nil {
		return err
	}
	e.client = c
	return nil
}

func (e *trainEnv) close() {
	if e.client != nil {
		e.client.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
}

func trainConfig(ds *dataset.Dataset, seed uint64) trainer.Config {
	return trainer.Config{
		Dataset:    ds,
		Model:      nn.ResNet18,
		Epochs:     trainEpochs,
		BatchSize:  trainBatch,
		Workers:    1,
		PipelineIS: true,
		Seed:       seed,
	}
}

// trainRun is what one measured training run leaves behind. It keeps no
// reference to the run's dataset, policy or cluster, so runs do not pile
// up in memory.
type trainRun struct {
	res      *trainer.Result
	wall     time.Duration
	batchLat timing
	samples  int  // dataset size: requests per epoch
	graph    bool // the policy scores on the semantic graph

	// remote-cache tier, train-remote only
	remote                    bool
	gets, hits, sets, errs    int64
	badLen                    int64
	pushes, retries, rerouted int64
}

// runTraining trains one configured environment through the probes.
func runTraining(env *trainEnv, seed uint64, tr *tracer) (*trainRun, error) {
	cfg := trainConfig(env.ds, seed)
	probe := &policyProbe{inner: env.pol, tr: tr}
	var rp *remoteProbe
	if env.client != nil {
		rp = &remoteProbe{inner: env.client, payload: env.ds.Payload, tr: tr}
		cfg.RemoteCache = rp
	}
	probe.start()
	t0 := time.Now()
	res, err := trainer.Run(cfg, probe)
	wall := time.Since(t0)
	probe.finish()
	if err != nil {
		return nil, err
	}
	res.FinalModel = nil
	run := &trainRun{res: res, wall: wall, batchLat: probe.batchLat, samples: env.ds.Len(), graph: env.pol.HasGraphIS()}
	if rp != nil {
		run.remote = true
		run.gets, run.hits, run.sets, run.errs, run.badLen = rp.gets, rp.hits, rp.sets, rp.errs, rp.badLen
		for _, reg := range env.nodeRegs {
			run.pushes += reg.Snapshot().Counters[`kv_replication_total{result="ok"}`]
		}
		snap := env.clientReg.Snapshot()
		for id, v := range snap.Counters {
			if strings.HasPrefix(id, "kv_retries_total{") {
				run.retries += v
			}
		}
		run.rerouted = snap.Counters[`kv_failover_total{result="rerouted"}`]
	}
	return run, nil
}

// checkTrain counts the outputs of one run that are wrong: an epoch that
// did not request every sample once or whose tiers do not add up, stats
// that differ from the first run of the same seed, and remote hits whose
// payload is not the sample's size. Cluster errors count as failures too.
func checkTrain(run, first *trainRun) (attempted, failed int64, problems []string) {
	for _, e := range run.res.Epochs {
		attempted += int64(e.Requests)
		if e.Requests != run.samples || e.HitCache+e.HitSub+e.Misses != e.Requests {
			failed++
			problems = append(problems, fmt.Sprintf("epoch %d: %d requests, %d+%d+%d served", e.Epoch, e.Requests, e.HitCache, e.HitSub, e.Misses))
		}
	}
	if first != nil && !reflect.DeepEqual(run.res.Epochs, first.res.Epochs) {
		failed++
		problems = append(problems, "epoch stats differ between runs of the same seed")
	}
	if run.remote {
		attempted += run.gets + run.sets
		failed += run.badLen + run.errs
		if run.badLen+run.errs > 0 {
			problems = append(problems, fmt.Sprintf("remote cache: %d wrong payload sizes, %d errors", run.badLen, run.errs))
		}
	}
	return attempted, failed, problems
}

func runTrainWorkload(spec trainSpec, o runOpts) (*report, error) {
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups []float64
	for i := 0; i < trainSetups; i++ {
		releaseMemory()
		t0 := time.Now()
		env, err := setupTrain(spec, o.seed, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env.close()
	}

	rt0 := readRuntime()
	pool0, inline0 := par.Stats()
	kpar0, kser0 := tensor.KernelStats()
	var runs []*trainRun
	var measured time.Duration
	for len(runs) == 0 || measured < o.seconds {
		releaseMemory()
		t0 := time.Now()
		env, err := setupTrain(spec, o.seed, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		run, err := runTraining(env, o.seed, tr)
		env.close()
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		measured += run.wall
	}
	rt := readRuntime().since(rt0)
	pool1, inline1 := par.Stats()
	kpar1, kser1 := tensor.KernelStats()

	var remoteGets, remoteHits int64
	var rates, p50s, p95s, hitRatios []float64
	var lat timing
	for _, run := range runs {
		a, f, problems := checkTrain(run, runs[0])
		rep.attempted += a
		rep.failed += f
		rep.problems = append(rep.problems, problems...)
		var req, served int64
		for _, e := range run.res.Epochs {
			req += int64(e.Requests)
			served += int64(e.HitCache + e.HitSub)
		}
		remoteGets += run.gets
		remoteHits += run.hits
		served += run.hits
		rates = append(rates, float64(req)/run.wall.Seconds())
		p50s = append(p50s, ms(run.batchLat.quantile(0.5)))
		p95s = append(p95s, ms(run.batchLat.quantile(0.95)))
		hitRatios = append(hitRatios, ratio(served, req))
		lat.merge(&run.batchLat)
	}
	nRuns := float64(len(runs))
	last := runs[len(runs)-1].res

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.note("training runs, sorted: samples/s %.0f", sorted(rates))
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", rss)
	rep.set("ops_per_s", median(rates))
	rep.set("p50_ms", median(p50s))
	rep.set("p95_ms", median(p95s))
	rep.set("hit_ratio", median(hitRatios))
	rep.note("%d training runs of %d epochs in %v; batch latency %s", len(runs), trainEpochs, measured.Round(time.Millisecond), lat.describe())

	rep.set("train.final_acc", last.FinalAcc)
	rep.set("train.sim_epoch_s", last.TotalTime.Seconds()/float64(len(last.Epochs)))
	var searches, snapHits int64
	for _, e := range last.Epochs {
		searches += e.SearchKNN
		snapHits += e.SnapshotHits
	}
	rep.set("semgraph.searchknn", float64(searches))
	rep.set("semgraph.snapshot_hits", float64(snapHits))
	rep.set("trainer.batches", float64(lat.count())/nRuns)
	rep.set("tensor.kernels.parallel", float64(kpar1-kpar0)/nRuns)
	rep.set("tensor.kernels.serial", float64(kser1-kser0)/nRuns)
	rep.set("par.tasks.pooled", float64(pool1-pool0)/nRuns)
	rep.set("par.tasks.inline", float64(inline1-inline0)/nRuns)
	rep.setRuntime(rt, nRuns)
	if spec.remote {
		setClusterCounters(rep, runs, nRuns)
		rep.set("cluster.remote_hit_ratio", ratio(remoteHits, remoteGets))
	}
	if tr != nil {
		spans := tr.snapshot()
		lt := analyze(spans)
		rep.setTrainLayers(lt, nRuns, runs[0].graph)
		rep.setTraceMeta(lt, measured, median(rates))
		if err := writeSpans(o.spanPath, spans); err != nil {
			return nil, err
		}
		rep.note("wrote %d spans to %s", len(spans), o.spanPath)
	}
	return rep, nil
}

// setClusterCounters reports the cluster layer's own counters, averaged
// per run.
func setClusterCounters(rep *report, runs []*trainRun, nRuns float64) {
	var pushes, retries, rerouted, errs int64
	for _, run := range runs {
		pushes += run.pushes
		retries += run.retries
		rerouted += run.rerouted
		errs += run.errs
	}
	rep.set("cluster.replication_pushes", float64(pushes)/nRuns)
	rep.set("cluster.retries", float64(retries)/nRuns)
	rep.set("cluster.failover_rerouted", float64(rerouted)/nRuns)
	rep.set("cluster.errors", float64(errs)/nRuns)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
