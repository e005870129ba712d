// Package ckpt is the on-disk checkpoint store behind
// engine.Checkpoint/OpenCheckpoint and the networked tier's -checkpoint
// flags. It persists opaque payloads (partitioned engine snapshots, the
// aggregator's per-agent state) with the guarantees a crash-recovery
// path needs:
//
//   - every checkpoint is one CRC-guarded "CK" frame: a torn or
//     bit-flipped file fails its checksum instead of restoring a wrong
//     payload;
//   - writes are atomic: write to a .tmp sibling, fsync, rename into
//     place, fsync the directory — the rename, once the directory
//     fsync returns, is the commit point, so a crash mid-write leaves
//     at worst a garbage .tmp and never replaces a valid checkpoint
//     with a torn one;
//   - checkpoints are sequence-numbered files (ckpt-<seq>.bd), and
//     recovery is one descending directory scan that skips every
//     torn/corrupt tail until it lands on the newest fully-valid
//     checkpoint — no pointer file can disagree with the data;
//   - after each successful save the store prunes all but the last
//     Keep checkpoints, bounding disk use.
//
// Directory layout:
//
//	dir/
//	  ckpt-00000000000000000001.bd   CRC-framed payload, seq 1
//	  ckpt-00000000000000000002.bd   ... newest retained
//
// Any other name in the directory (a .tmp left by a crash, a MANIFEST
// an older layout wrote) is ignored.
//
// The layering mirrors the pager/LSM idiom: the store knows nothing
// about sketch state — callers hand it marshaled bytes and get back
// exactly those bytes or an error, never a partial payload.
package ckpt

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

const (
	dataMagic    = "CK"
	frameVersion = 1

	dataPrefix = "ckpt-"
	dataSuffix = ".bd"
	tmpSuffix  = ".tmp"

	defaultKeep = 3
)

// ErrNoCheckpoint is returned by Load when the directory holds no
// fully-valid checkpoint (empty, or every candidate failed its CRC or
// framing) — the "recover from nothing" signal callers turn into a
// cold start.
var ErrNoCheckpoint = errors.New("ckpt: no valid checkpoint")

// castagnoli is the CRC-32C table every frame is guarded with
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Store. The zero value is usable.
type Options struct {
	// Keep is how many checkpoints survive pruning after a successful
	// Save (default 3; older data files are deleted).
	Keep int
	// WrapWriter, when non-nil, wraps every file write — the
	// error-injection hook the crash-recovery tests use to fail or
	// truncate a write at any byte boundary. name is the final file's
	// base name. Production callers leave it nil.
	WrapWriter func(name string, w io.Writer) io.Writer
}

// Store is one checkpoint directory. All methods are safe for
// concurrent use; Save and Load serialize on an internal mutex.
type Store struct {
	dir  string
	keep int
	wrap func(name string, w io.Writer) io.Writer

	mu      sync.Mutex
	nextSeq uint64

	// Observability. The counters and gauges are plain atomics — the
	// store is cold-path (fsync dominates every op), so no cache-line
	// padding is needed; the latency histograms are obs histograms.
	saves           atomic.Int64
	loads           atomic.Int64
	bytesWritten    atomic.Int64
	pruned          atomic.Int64
	skippedCorrupt  atomic.Int64
	writeNanos      obs.Histogram
	loadNanos       obs.Histogram
	kept            atomic.Int64
	lastSuccessUnix atomic.Int64
}

// Open creates (if needed) and scans a checkpoint directory. Opening
// never validates payloads — Load does — so a directory full of
// corrupt tails still opens, recovers what it can, and keeps saving.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty directory path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if opt.Keep <= 0 {
		opt.Keep = defaultKeep
	}
	s := &Store{dir: dir, keep: opt.Keep, wrap: opt.WrapWriter}
	seqs, err := s.listSeqs()
	if err != nil {
		return nil, err
	}
	if n := len(seqs); n > 0 {
		s.nextSeq = seqs[n-1] + 1
	} else {
		s.nextSeq = 1
	}
	s.kept.Store(int64(len(seqs)))
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Save atomically persists one checkpoint and prunes beyond the
// retention bound, returning the new checkpoint's sequence number. On
// error nothing valid is replaced: the previous newest checkpoint
// remains the one Load recovers.
func (s *Store) Save(payload []byte) (uint64, error) {
	start := obs.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.nextSeq
	frame := encodeFrame(seq, payload)
	name := dataName(seq)
	if err := s.writeFileAtomic(name, frame); err != nil {
		return 0, err
	}
	s.nextSeq = seq + 1
	s.pruneLocked(seq)
	s.saves.Add(1)
	s.bytesWritten.Add(int64(len(frame)))
	s.lastSuccessUnix.Store(time.Now().Unix())
	s.writeNanos.ObserveSince(start)
	return seq, nil
}

// Load returns the newest fully-valid checkpoint's payload and
// sequence number: a descending scan of the data files, skipping (and
// counting) every corrupt tail. ErrNoCheckpoint when nothing valid
// remains.
func (s *Store) Load() ([]byte, uint64, error) {
	start := obs.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs, err := s.listSeqs()
	if err != nil {
		return nil, 0, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		payload, seq, err := s.readFrame(dataName(seqs[i]))
		if err != nil {
			s.skippedCorrupt.Add(1)
			continue
		}
		s.loads.Add(1)
		s.loadNanos.ObserveSince(start)
		return payload, seq, nil
	}
	return nil, 0, ErrNoCheckpoint
}

// LatestSeq reports the sequence number the next Save will use minus
// one (0 = nothing saved yet in this store's lifetime and no files
// found at Open).
func (s *Store) LatestSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1
}

// readFrame reads and CRC-verifies one framed file.
func (s *Store) readFrame(name string) ([]byte, uint64, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, 0, err
	}
	return decodeFrame(data)
}

// encodeFrame builds one CRC-guarded file image: a wire frame (magic,
// version, seq, length-prefixed payload) followed by the CRC-32C of
// everything before it.
func encodeFrame(seq uint64, payload []byte) []byte {
	w := wire.NewWriter(dataMagic, frameVersion)
	w.U64(seq)
	w.Bytes32(payload)
	body := w.Bytes()
	crc := crc32.Checksum(body, castagnoli)
	out := make([]byte, 0, len(body)+4)
	out = append(out, body...)
	out = append(out, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	return out
}

// decodeFrame parses and verifies a frame produced by encodeFrame.
// Malformed input of any kind — truncation, bit flips, foreign magic,
// trailing garbage — errors; it never panics and allocations are
// bounded by the input size.
func decodeFrame(data []byte) ([]byte, uint64, error) {
	if len(data) < 4 {
		return nil, 0, fmt.Errorf("ckpt: frame shorter than its checksum")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, 0, fmt.Errorf("ckpt: checksum mismatch (file %08x, computed %08x)", want, got)
	}
	r, v, err := wire.NewReader(body, dataMagic)
	if err != nil {
		return nil, 0, err
	}
	if v != frameVersion {
		return nil, 0, fmt.Errorf("ckpt: unsupported frame version %d", v)
	}
	seq := r.U64()
	payload := r.Bytes32()
	if err := r.Done(); err != nil {
		return nil, 0, err
	}
	return payload, seq, nil
}

// writeFileAtomic writes name via a fsynced .tmp sibling and rename,
// then fsyncs the directory so the rename itself is durable.
func (s *Store) writeFileAtomic(name string, data []byte) error {
	final := filepath.Join(s.dir, name)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	var w io.Writer = f
	if s.wrap != nil {
		w = s.wrap(name, f)
	}
	if _, err := w.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: writing %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: syncing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: closing %s: %w", name, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	return syncDir(s.dir)
}

// syncDir fsyncs the directory entry so a completed rename survives a
// power cut. Filesystems that refuse directory fsync (some network
// mounts) degrade gracefully.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return fmt.Errorf("ckpt: syncing dir %s: %w", dir, err)
	}
	return nil
}

// pruneLocked deletes data files older than the retention bound.
// Callers hold s.mu.
func (s *Store) pruneLocked(newest uint64) {
	seqs, err := s.listSeqs()
	if err != nil {
		return
	}
	keepFrom := 0
	if len(seqs) > s.keep {
		keepFrom = len(seqs) - s.keep
	}
	for _, seq := range seqs[:keepFrom] {
		if seq >= newest {
			continue
		}
		if os.Remove(filepath.Join(s.dir, dataName(seq))) == nil {
			s.pruned.Add(1)
		}
	}
	s.kept.Store(int64(len(seqs) - keepFrom))
}

// listSeqs returns the sequence numbers of all data files, ascending.
// Stray .tmp files and foreign names are ignored.
func (s *Store) listSeqs() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, dataPrefix) || !strings.HasSuffix(name, dataSuffix) {
			continue
		}
		digits := strings.TrimSuffix(strings.TrimPrefix(name, dataPrefix), dataSuffix)
		seq, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// dataName formats a data file name; zero-padding keeps lexical and
// numeric order identical for casual directory listings.
func dataName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", dataPrefix, seq, dataSuffix)
}

// ExposeMetrics registers the store's observability series on r under
// the instance label: save/load latency histograms, bytes written,
// checkpoints kept/pruned, last-success gauge, and the corrupt-skip
// counter recovery increments. Returns the unregister function.
func (s *Store) ExposeMetrics(r *obs.Registry, instance string) func() {
	owner := "ckpt:" + instance
	inst := obs.Label{Key: "instance", Value: instance}
	r.CounterFunc(owner, "repro_ckpt_saves_total", "checkpoints written", s.saves.Load, inst)
	r.CounterFunc(owner, "repro_ckpt_loads_total", "checkpoints recovered", s.loads.Load, inst)
	r.CounterFunc(owner, "repro_ckpt_bytes_written_total", "checkpoint bytes written (framed)", s.bytesWritten.Load, inst)
	r.CounterFunc(owner, "repro_ckpt_pruned_total", "checkpoints deleted by retention", s.pruned.Load, inst)
	r.CounterFunc(owner, "repro_ckpt_recovery_skipped_corrupt_total", "torn/corrupt files skipped during recovery", s.skippedCorrupt.Load, inst)
	r.GaugeFunc(owner, "repro_ckpt_kept", "checkpoints currently retained", s.kept.Load, inst)
	r.GaugeFunc(owner, "repro_ckpt_last_success_unix", "unix time of the last successful save", s.lastSuccessUnix.Load, inst)
	r.HistogramFunc(owner, "repro_ckpt_write_seconds", "checkpoint save wall time (marshal excluded)", s.writeNanos.Snapshot, inst)
	r.HistogramFunc(owner, "repro_ckpt_load_seconds", "checkpoint recovery wall time", s.loadNanos.Snapshot, inst)
	return func() { r.RemoveOwner(owner) }
}

// Stats is a point-in-time snapshot of the store's counters, each
// exact.
type Stats struct {
	Saves, Loads    int64
	BytesWritten    int64
	Pruned, Kept    int64
	SkippedCorrupt  int64
	LastSuccessUnix int64
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Saves:           s.saves.Load(),
		Loads:           s.loads.Load(),
		BytesWritten:    s.bytesWritten.Load(),
		Pruned:          s.pruned.Load(),
		Kept:            s.kept.Load(),
		SkippedCorrupt:  s.skippedCorrupt.Load(),
		LastSuccessUnix: s.lastSuccessUnix.Load(),
	}
}
