package main

import (
	"reflect"
	"testing"

	"spidercache"
	"spidercache/internal/trainer"
)

// The probes must not change what is measured: the traced train-spider run
// (policy probe, timed HNSW searcher built beside core.New) and the
// untraced one must train exactly as spidercache.TrainWith does, bit for
// bit.
func TestTrainSpiderProbesMatchTrainWith(t *testing.T) {
	if testing.Short() {
		t.Skip("three 5-epoch training runs")
	}
	const seed = 7
	ds, err := spidercache.NewCIFAR10(1, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spidercache.TrainWith(ds, spidercache.WithPolicy("spider"),
		spidercache.WithEpochs(trainEpochs), spidercache.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}

	runs := make([]*trainRun, 2)
	for i, tr := range []*tracer{nil, newTracer()} {
		env, err := setupTrain(trainSpec{policy: "spider"}, seed, tr)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = runTraining(env, seed, tr); err != nil {
			t.Fatal(err)
		}
		env.close()
		if tr != nil {
			var searches int64
			for _, e := range runs[i].res.Epochs {
				searches += e.SearchKNN
			}
			lt := analyze(tr.snapshot())
			if got := lt.dur["hnsw.search"].count(); int64(got) != searches {
				t.Errorf("traced %d hnsw.search spans, trainer counted %d SearchKNN calls", got, searches)
			}
		}
	}

	if !reflect.DeepEqual(runs[0].res.Epochs, runs[1].res.Epochs) {
		t.Errorf("traced epoch stats differ from untraced:\n%+v\n%+v", runs[0].res.Epochs, runs[1].res.Epochs)
	}
	for _, run := range runs {
		if got := public(run.res.Epochs); !reflect.DeepEqual(got, want.Epochs) {
			t.Errorf("epoch stats differ from TrainWith:\n%+v\n%+v", got, want.Epochs)
		}
		if run.res.TotalTime != want.TotalTime || run.res.FinalAcc != want.FinalAcc {
			t.Errorf("total time %v acc %v, TrainWith %v %v", run.res.TotalTime, run.res.FinalAcc, want.TotalTime, want.FinalAcc)
		}
	}
}

// The remote workload's probes (policy, and the RemoteCache over the
// cluster) must not change the training either.
func TestTrainRemoteProbesMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("two training runs against in-process clusters")
	}
	const seed = 7
	runs := make([]*trainRun, 2)
	for i, tr := range []*tracer{nil, newTracer()} {
		env, err := setupTrain(trainSpec{policy: "baseline", remote: true}, seed, tr)
		if err != nil {
			t.Fatal(err)
		}
		runs[i], err = runTraining(env, seed, tr)
		env.close()
		if err != nil {
			t.Fatal(err)
		}
		if _, failed, problems := checkTrain(runs[i], nil); failed != 0 {
			t.Errorf("run %d: %d failed checks: %v", i, failed, problems)
		}
	}
	if !reflect.DeepEqual(runs[0].res.Epochs, runs[1].res.Epochs) {
		t.Errorf("traced epoch stats differ from untraced:\n%+v\n%+v", runs[0].res.Epochs, runs[1].res.Epochs)
	}
	if runs[0].hits == 0 || runs[0].hits != runs[1].hits {
		t.Errorf("remote hits untraced %d, traced %d; want equal and non-zero", runs[0].hits, runs[1].hits)
	}
}

// public converts trainer epoch stats the way spidercache.TrainWith does.
func public(eps []trainer.EpochStats) []spidercache.EpochStats {
	out := make([]spidercache.EpochStats, len(eps))
	for i, e := range eps {
		out[i] = spidercache.EpochStats{
			Epoch:     e.Epoch,
			HitRatio:  e.HitRatio(),
			SubRatio:  float64(e.HitSub) / float64(e.Requests),
			Accuracy:  e.Accuracy,
			TrainLoss: e.TrainLoss,
			EpochTime: e.EpochTime,
			ScoreStd:  e.ScoreStd,
			ImpRatio:  e.ImpRatio,
		}
	}
	return out
}
