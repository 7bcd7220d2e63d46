package experiments

import (
	"time"

	"gftpvc/internal/sessions"
	"gftpvc/internal/usagestats"
	"gftpvc/internal/workload"
)

// Dataset generation at full scale is the dominant cost when regenerating
// every exhibit (the SLAC–BNL log has 1,021,999 records), so generated
// datasets and their groupings are memoized per seed through bounded LRU
// caches (see memo.go) — seed sweeps cannot grow memory without limit.
// A memoized grouping holds one copy of its dataset's records, which all
// of its sessions' Transfers share as windows; exhibits only read them.

type datasetKey struct {
	name string
	seed int64
}

var dsCache = newBoundedMemo[datasetKey, *workload.Dataset](4)

func cachedDataset(name string, seed int64, gen func() (*workload.Dataset, error)) (*workload.Dataset, error) {
	return dsCache.get(datasetKey{name, seed}, gen)
}

func ncarDataset(seed int64) (*workload.Dataset, error) {
	return cachedDataset("ncar", seed, func() (*workload.Dataset, error) {
		return workload.NCARNICS(workload.Options{Seed: seed})
	})
}

func slacDataset(seed int64) (*workload.Dataset, error) {
	return cachedDataset("slac", seed, func() (*workload.Dataset, error) {
		return workload.SLACBNL(workload.Options{Seed: seed})
	})
}

type groupKey struct {
	datasetKey
	g time.Duration
}

// The full exhibit suite touches six (dataset, gap) groupings per seed;
// twelve covers two seeds side by side without thrash.
var grCache = newBoundedMemo[groupKey, []*sessions.Session](12)

func groupedSessions(name string, seed int64, records []usagestats.Record, g time.Duration) ([]*sessions.Session, error) {
	return grCache.get(groupKey{datasetKey{name, seed}, g}, func() ([]*sessions.Session, error) {
		return sessions.Group(records, g)
	})
}
