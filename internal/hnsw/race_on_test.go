//go:build race

package hnsw

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// the items put back and allocation counts stop being meaningful.
const raceEnabled = true
