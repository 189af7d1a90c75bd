package spidercache

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestGoldenSpiderEpochs pins every EpochStats field of a small seeded
// SpiderCache run, bit for bit. The scoring loop upserts into and searches
// the HNSW index every batch, so any change to the index that moves a single
// neighbour or distance bit moves this hash.
func TestGoldenSpiderEpochs(t *testing.T) {
	ds, err := NewCIFAR10(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainWith(ds, WithPolicy("spider"), WithEpochs(3), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, e := range res.Epochs {
		put(uint64(e.Epoch))
		for _, f := range []float64{e.HitRatio, e.SubRatio, e.Accuracy, e.TrainLoss, e.ScoreStd, e.ImpRatio} {
			put(math.Float64bits(f))
		}
		put(uint64(e.EpochTime))
	}
	if got, want := h.Sum64(), uint64(0x792c3bf3f4024da6); got != want {
		t.Fatalf("epoch stats hash = %#x, want %#x", got, want)
	}
}
