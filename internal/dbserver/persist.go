package dbserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/wal"
)

// walState is one store's persistence handle plus the auto-snapshot
// bookkeeping.
type walState struct {
	store *wal.Store
	// appended counts readings journaled since the last snapshot, for
	// the Config.SnapshotEvery compaction policy.
	appended atomic.Int64
	// snapshotting serializes compactions of this store: concurrent
	// triggers (auto + admin) coalesce to one.
	snapshotting atomic.Bool
}

// storeJournal adapts a walState to core.Journal, counting appended
// readings for the auto-snapshot policy. Its methods run under the
// updater's store lock (see core.Journal), so they only enqueue.
type storeJournal struct{ ws *walState }

func (j storeJournal) AppendReadings(ctx context.Context, rs []dataset.Reading) {
	j.ws.store.AppendReadings(ctx, rs)
	j.ws.appended.Add(int64(len(rs)))
}

func (j storeJournal) RecordRetrain(ctx context.Context, version, trainedCount int) {
	j.ws.store.RecordRetrain(ctx, version, trainedCount)
}

// Open builds a server and, when cfg.DataDir is set, recovers every
// persisted store from disk before serving: snapshot load, WAL segment
// replay, and a deterministic model rebuild at the persisted version.
// With no DataDir it is equivalent to New.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		ch, kind, ok := wal.ParseStoreDirName(ent.Name())
		if !ok || !ent.IsDir() {
			continue
		}
		if _, err := s.updaterFor(ch, kind); err != nil {
			return nil, fmt.Errorf("dbserver: recover %s: %w", ent.Name(), err)
		}
	}
	return s, nil
}

// storeDir is the on-disk directory for one store key.
func (s *Server) storeDir(key storeKey) string {
	return filepath.Join(s.cfg.DataDir, wal.StoreDirName(key.ch, key.kind))
}

// openStore opens (or recovers) the durable store for key and returns
// the journal the updater must be wired to. Called with s.mu write-held
// from updaterFor. Recovery order matters: the persisted state is
// restored into the fresh updater here, before the caller attaches any
// journal, so replayed records are not re-journaled (and not re-tapped
// into replication).
func (s *Server) openStore(key storeKey, u *core.Updater) (core.Journal, error) {
	w, rec, err := wal.OpenStore(s.storeDir(key), key.ch, key.kind, wal.StoreOptions{
		FS:            s.cfg.WALFS,
		Metrics:       s.metrics,
		FlushInterval: s.cfg.WALFlushInterval,
		Log:           s.cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	if len(rec.Readings) > 0 || rec.ModelVersion > 0 {
		if err := u.Restore(rec.Readings, rec.ModelVersion, rec.TrainedCount); err != nil {
			w.Close()
			return nil, fmt.Errorf("restore: %w", err)
		}
	}
	ws := &walState{store: w}
	s.wals[key] = ws
	return storeJournal{ws}, nil
}

// maybeSnapshot triggers a background snapshot compaction of key's store
// when the SnapshotEvery policy says it is due. Non-blocking: the upload
// path only does an atomic load and, at most, spawns the goroutine.
// After Close it starts nothing; Close waits for the ones it started.
func (s *Server) maybeSnapshot(key storeKey) {
	if s.cfg.SnapshotEvery <= 0 {
		return
	}
	s.mu.RLock()
	ws := s.wals[key]
	s.mu.RUnlock()
	if ws == nil || ws.appended.Load() < int64(s.cfg.SnapshotEvery) {
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	select {
	case <-s.closed:
		return
	default:
	}
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		s.snapshotStore(key) //nolint:errcheck // counted in waldo_wal_snapshot_errors_total
	}()
}

// snapshotStore compacts one store: it captures a consistent (readings,
// model version, trained count) view inside the updater's checkpoint
// lock — where the WAL also rotates to a fresh segment, making the cut
// exact — then writes the snapshot file and deletes covered segments off
// the lock. Concurrent calls for the same store coalesce.
func (s *Server) snapshotStore(key storeKey) error {
	u, ok := s.lookup(key.ch, key.kind)
	s.mu.RLock()
	ws := s.wals[key]
	s.mu.RUnlock()
	if !ok || ws == nil {
		return fmt.Errorf("dbserver: no durable store for %v/%v", key.ch, key.kind)
	}
	if !ws.snapshotting.CompareAndSwap(false, true) {
		return nil // one already in flight
	}
	defer ws.snapshotting.Store(false)

	var (
		epoch    uint64
		readings []dataset.Reading
		version  int
		trained  int
		err      error
	)
	u.Checkpoint(func(rs []dataset.Reading, v, tc int) {
		readings, version, trained = rs, v, tc
		epoch, err = ws.store.BeginCheckpoint()
	})
	if err != nil {
		return err
	}
	if err := ws.store.CompleteCheckpoint(epoch, readings, version, trained); err != nil {
		return err
	}
	ws.appended.Store(0)
	return nil
}

// FlushWAL blocks until every journaled record of every store is on
// stable storage. The e2e crash harness calls it to mark the durability
// point before a simulated kill.
func (s *Server) FlushWAL() error {
	var first error
	for _, ws := range s.walSnapshot() {
		if err := ws.store.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes and closes every durable store's log and wakes every
// parked model watcher (answered 503 so clients re-arm elsewhere) — a
// listener draining in-flight requests after Close never waits out a
// long-poll horizon. It deliberately does not snapshot: the data dir
// stays crash-shaped, and recovery replays it identically whether the
// process exited cleanly or died. A background snapshot already running
// is waited for, so a reopen of the data dir never races its segment
// deletion. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.snapMu.Lock()
		close(s.closed)
		s.snapMu.Unlock()
		// Stop grid rebuild scheduling and wait out any in-flight build
		// so shutdown never leaks a builder goroutine.
		s.geoidx.Close()
		if s.ownRec {
			s.recorder.Close()
		}
	})
	s.snapWG.Wait()
	var first error
	for _, ws := range s.walSnapshot() {
		if err := ws.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// walSnapshot copies the current store handles out from under the lock.
func (s *Server) walSnapshot() []*walState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*walState, 0, len(s.wals))
	for _, ws := range s.wals {
		out = append(out, ws)
	}
	return out
}

// SnapshotJSON is one store's entry in the /v1/admin/snapshot response.
type SnapshotJSON struct {
	Channel int    `json:"channel"`
	Sensor  int    `json:"sensor"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
}

// handleAdminSnapshot triggers snapshot compaction: of one store when
// channel and sensor are given, of every store otherwise. It answers 503
// when persistence is disabled (no DataDir), and reports per-store
// outcomes so a partial failure is visible.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DataDir == "" {
		http.Error(w, "persistence disabled: server has no data dir", http.StatusServiceUnavailable)
		return
	}
	var keys []storeKey
	if r.URL.Query().Get("channel") != "" || r.URL.Query().Get("sensor") != "" {
		ch, kind, err := parseKey(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, ok := s.lookup(ch, kind); !ok {
			http.Error(w, "no store for this channel/sensor", http.StatusNotFound)
			return
		}
		keys = []storeKey{{ch, kind}}
	} else {
		keys, _ = s.storeSnapshot()
	}
	out := make([]SnapshotJSON, 0, len(keys))
	allOK := true
	for _, key := range keys {
		entry := SnapshotJSON{Channel: int(key.ch), Sensor: int(key.kind), OK: true}
		if err := s.snapshotStore(key); err != nil {
			entry.OK = false
			entry.Error = err.Error()
			allOK = false
		}
		out = append(out, entry)
	}
	if !allOK {
		w.WriteHeader(http.StatusInternalServerError)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return // client went away
	}
}
