package dynserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/dynmon"
	"repro/dynserve/fault"
)

// Store persists jobs under Config.DataDir so a crash (kill -9, OOM) loses
// at most CheckpointEvery rounds of progress and no job identity.  Layout:
//
//	<data-dir>/
//	  manifest.json            {"version":1,"next_seq":N} — id continuity
//	  jobs/<id>/
//	    spec.json              the submitted FileSpec (canonical wire form)
//	    meta.json              state, digest, rounds, terminal error
//	    checkpoint.json        newest durable checkpoint (cadence or eviction)
//	    result.json            terminal Result bytes (state done)
//
// Every file is replaced atomically: write <name>.tmp in the same
// directory, fsync, rename over <name>, fsync the directory.  A crash
// mid-write therefore leaves the previous version intact — recovery never
// sees a half-written file, only a missing or an old one.  Combined with
// the engine's checkpoint determinism (a resumed run is bit-identical to an
// uninterrupted one), recovery is exact: the Result a recovered job serves
// is byte-for-byte the Result the crash interrupted.
type Store struct {
	root string
}

// Filenames inside a job directory.
const (
	storeSpecFile       = "spec.json"
	storeMetaFile       = "meta.json"
	storeCheckpointFile = "checkpoint.json"
	storeResultFile     = "result.json"
)

// storeManifest is the root manifest: schema version and the id sequence
// high-water mark, so restarted servers never reuse a job id.
type storeManifest struct {
	Version int   `json:"version"`
	NextSeq int64 `json:"next_seq"`
}

// jobMeta is the persisted slice of a job's state — everything recovery
// needs besides the spec, checkpoint and result files.
type jobMeta struct {
	ID              string `json:"id"`
	Digest          string `json:"digest"`
	State           string `json:"state"`
	Round           int    `json:"round"`
	CheckpointRound int    `json:"checkpoint_round"`
	Error           string `json:"error,omitempty"`
	FinishedAtNanos int64  `json:"finished_at_unix_ns,omitempty"`
}

// OpenStore opens (creating if needed) a job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("dynserve: opening job store: %w", err)
	}
	return &Store{root: dir}, nil
}

func (st *Store) jobDir(id string) string { return filepath.Join(st.root, "jobs", id) }

// atomicWrite replaces path with data: temp file in the same directory,
// fsync, rename, directory fsync.  Readers see the old bytes or the new
// bytes, never a mix.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms reject fsync on directories; the rename is still
	// atomic there, so degrade silently.
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// SaveSpec persists a job's submitted FileSpec (once, at creation).
func (st *Store) SaveSpec(id string, fs *dynmon.FileSpec) error {
	b, err := fs.JSON()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(st.jobDir(id), 0o755); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(st.jobDir(id), storeSpecFile), b)
}

// SaveMeta persists a job's state snapshot (every lifecycle transition).
func (st *Store) SaveMeta(m jobMeta) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(st.jobDir(m.ID), 0o755); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(st.jobDir(m.ID), storeMetaFile), b)
}

// SaveCheckpoint persists a job's newest checkpoint — the durability
// cadence sink and the eviction snapshot.  The two failpoints here are the
// fault-injection surface for durable-write I/O: CheckpointSlow stalls the
// write, CheckpointWriteError fails it.
func (st *Store) SaveCheckpoint(id string, cp *dynmon.Checkpoint) error {
	fault.Fire(fault.CheckpointSlow)
	if fault.Fire(fault.CheckpointWriteError) {
		return errors.New("fault: injected checkpoint write error")
	}
	b, err := cp.JSON()
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(st.jobDir(id), storeCheckpointFile), b)
}

// SaveResult persists a done job's terminal Result bytes.
func (st *Store) SaveResult(id string, resJSON []byte) error {
	return atomicWrite(filepath.Join(st.jobDir(id), storeResultFile), resJSON)
}

// SaveNextSeq records the id sequence high-water mark.
func (st *Store) SaveNextSeq(n int64) error {
	b, err := json.Marshal(storeManifest{Version: 1, NextSeq: n})
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(st.root, "manifest.json"), b)
}

// DeleteJob removes a job's directory (retention purge).
func (st *Store) DeleteJob(id string) error {
	return os.RemoveAll(st.jobDir(id))
}

// persistedJob is one job as read back from disk.  Err carries a per-file
// corruption: the job then surfaces as failed, but the server still boots —
// a damaged entry never takes recovery down.
type persistedJob struct {
	id         string
	meta       jobMeta
	spec       []byte
	checkpoint []byte // nil when none was taken
	result     []byte // nil unless terminal done
	err        error
}

// Load reads every persisted job plus the next id sequence number.  Per-job
// damage is reported on the entry, not as a load failure; only an unusable
// root errors.
func (st *Store) Load() ([]persistedJob, int64, error) {
	nextSeq := int64(0)
	if b, err := os.ReadFile(filepath.Join(st.root, "manifest.json")); err == nil {
		var m storeManifest
		// A corrupt manifest degrades to id recovery from directory names.
		if json.Unmarshal(b, &m) == nil && m.NextSeq > nextSeq {
			nextSeq = m.NextSeq
		}
	}
	entries, err := os.ReadDir(filepath.Join(st.root, "jobs"))
	if err != nil {
		return nil, 0, fmt.Errorf("dynserve: reading job store: %w", err)
	}
	var jobs []persistedJob
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		if seq := seqOfJobID(id); seq >= nextSeq {
			nextSeq = seq + 1
		}
		jobs = append(jobs, st.loadJob(id))
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	return jobs, nextSeq, nil
}

// loadJob reads one job directory, mapping damage to the entry's err.
func (st *Store) loadJob(id string) persistedJob {
	pj := persistedJob{id: id}
	dir := st.jobDir(id)

	metaBytes, err := os.ReadFile(filepath.Join(dir, storeMetaFile))
	if err != nil {
		pj.err = fmt.Errorf("job metadata unreadable: %w", err)
		return pj
	}
	if err := json.Unmarshal(metaBytes, &pj.meta); err != nil {
		pj.err = fmt.Errorf("job metadata corrupted: %w", err)
		return pj
	}
	pj.meta.ID = id // the directory name is authoritative

	pj.spec, err = os.ReadFile(filepath.Join(dir, storeSpecFile))
	if err != nil {
		pj.err = fmt.Errorf("job spec unreadable: %w", err)
		return pj
	}

	if b, err := os.ReadFile(filepath.Join(dir, storeCheckpointFile)); err == nil {
		pj.checkpoint = b
	} else if !errors.Is(err, os.ErrNotExist) {
		pj.err = fmt.Errorf("job checkpoint unreadable: %w", err)
		return pj
	}

	if pj.meta.State == jobDone {
		pj.result, err = os.ReadFile(filepath.Join(dir, storeResultFile))
		if err != nil {
			pj.err = fmt.Errorf("job result unreadable: %w", err)
		}
	}
	return pj
}

// seqOfJobID parses the numeric sequence out of a "j%06d" id, -1 otherwise.
func seqOfJobID(id string) int64 {
	if !strings.HasPrefix(id, "j") {
		return -1
	}
	var seq int64
	if _, err := fmt.Sscanf(id[1:], "%d", &seq); err != nil {
		return -1
	}
	return seq
}
