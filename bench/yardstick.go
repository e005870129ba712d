package main

import "time"

// The yardstick is a fixed piece of work shaped like the library's hot
// path — a stream of keys, seven multiply-shift hashes each, one counter
// bumped per hash in a 7 × 2400 table of counter pairs (268 KB) — timed
// at the end of every lap. Its reading says how fast this host runs that
// kind of code right now; nothing else about the host is known to the
// benchmark.
//
// It exists because this host's speed on exactly that kind of code is
// not a constant. The CPUs are shares of a busy machine, and over ten
// runs of twelve seconds each the same yardstick read between 11.4 and
// 21.2 ns per update (pure register arithmetic, by contrast, repeats
// within 2 %: what moves is the cache the table lives in). The library's
// throughput moved with it, lap by lap: median lap rates of 4.05–6.77 M
// updates/s on ingest-sampled, an interquartile spread of 30 % of the
// median, against 7.7 % once every lap's rate is multiplied by the
// yardstick reading taken at its end; 24 % against 4.8 % on ingest-rate1,
// 30 % against 5.4 % on mixed-readwrite. The gated timings are therefore
// host-adjusted: a lap's samples are scaled by that lap's slowdown, the
// yardstick's reading divided by yardstickNominalNS, i.e. stated for a
// host on which the yardstick takes its nominal time. The raw values are
// in the ledger and in every run's notes.
const (
	yardstickRows, yardstickCols = 7, 2400
	// yardstickUpdates is the work of one reading: about a millisecond,
	// under 1 % of the shortest lap.
	yardstickUpdates = 1 << 16
	// yardstickNominalNS fixes the scale of the adjusted metrics: the
	// yardstick's time per update on this host in its quiet moments.
	yardstickNominalNS = 12.0
)

var yardstickMult = [yardstickRows]uint64{
	0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93,
	0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0x2545F4914F6CDD1D,
}

type yardstick struct {
	keys  []uint64 // 16 readings' worth, walked a window at a time
	pos   int
	table []int64
}

func newYardstick() *yardstick {
	y := &yardstick{keys: make([]uint64, 16*yardstickUpdates), table: make([]int64, yardstickRows*yardstickCols*2)}
	x := uint64(88172645463325252)
	for i := range y.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y.keys[i] = x
	}
	return y
}

// slowdown takes one reading: the yardstick's time per update now,
// divided by its nominal time.
func (y *yardstick) slowdown() float64 {
	w := y.keys[y.pos : y.pos+yardstickUpdates]
	y.pos = (y.pos + yardstickUpdates) % len(y.keys)
	t := time.Now()
	for _, k := range w {
		for r, mult := range yardstickMult {
			h := (k ^ k>>29) * mult
			col := (h >> 32) * yardstickCols >> 32
			y.table[(r*yardstickCols+int(col))*2+int(h&1)]++
		}
	}
	return float64(time.Since(t).Nanoseconds()) / yardstickUpdates / yardstickNominalNS
}
