package dynserve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dynmon"
)

// TestAtomicWriteReplacesWholeFile pins the crash-consistency primitive: a
// replace leaves exactly the new bytes, and no temp debris survives.
func TestAtomicWriteReplacesWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.json")
	if err := atomicWrite(path, []byte("a long first version of the file")); err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("after replace file holds %q, want %q (no stale tail)", got, "v2")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.Contains(ent.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", ent.Name())
		}
	}
}

// TestStoreRoundTrip pins the persistence schema: a saved spec, meta,
// checkpoint and result load back intact, and the manifest's id sequence is
// honored.
func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2,"rule":"smp"},"initial":{"config":"minimum"},"run":{"target":1}}`)
	fs, err := dynmon.ParseFileSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("j000007", fs); err != nil {
		t.Fatal(err)
	}
	meta := jobMeta{ID: "j000007", Digest: "abc", State: jobDone, Round: 8, CheckpointRound: 4, FinishedAtNanos: 12345}
	if err := st.SaveMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("j000007", []byte(`{"rounds":8}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveNextSeq(11); err != nil {
		t.Fatal(err)
	}

	jobs, nextSeq, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if nextSeq != 11 {
		t.Fatalf("nextSeq = %d, want 11 (manifest high-water mark)", nextSeq)
	}
	if len(jobs) != 1 {
		t.Fatalf("loaded %d jobs, want 1", len(jobs))
	}
	pj := jobs[0]
	if pj.err != nil {
		t.Fatalf("round trip surfaced damage: %v", pj.err)
	}
	if pj.meta != meta {
		t.Fatalf("meta round trip: got %+v, want %+v", pj.meta, meta)
	}
	if !bytes.Equal(pj.result, []byte(`{"rounds":8}`)) {
		t.Fatalf("result round trip: %s", pj.result)
	}
	if pj.checkpoint != nil {
		t.Fatal("phantom checkpoint loaded for a job that never saved one")
	}
	if _, err := dynmon.ParseFileSpec(pj.spec); err != nil {
		t.Fatalf("persisted spec does not re-parse: %v", err)
	}
}

// TestStoreLoadSequenceFromDirectories pins the manifest fallback: with no
// (or a stale) manifest the sequence recovers from the job directory names,
// so ids are never reused even if the manifest write was lost.
func TestStoreLoadSequenceFromDirectories(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveMeta(jobMeta{ID: "j000042", State: jobFailed, Error: "x"}); err != nil {
		t.Fatal(err)
	}
	// A spec must exist for the entry to load clean; failed jobs keep theirs.
	fs, err := dynmon.ParseFileSpec([]byte(`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2,"rule":"smp"},"initial":{"config":"minimum"},"run":{"target":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSpec("j000042", fs); err != nil {
		t.Fatal(err)
	}
	_, nextSeq, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if nextSeq != 43 {
		t.Fatalf("nextSeq = %d, want 43 (max directory id + 1)", nextSeq)
	}
}

// TestStoreLoadCorruption pins damage tolerance: truncated or garbage files
// surface as the entry's err — never as a Load failure that would stop the
// server from booting.
func TestStoreLoadCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, jobDir string)
		wantErr string
	}{
		{
			name: "garbage-metadata",
			corrupt: func(t *testing.T, jobDir string) {
				if err := os.WriteFile(filepath.Join(jobDir, storeMetaFile), []byte("{truncated"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "metadata corrupted",
		},
		{
			name: "missing-spec",
			corrupt: func(t *testing.T, jobDir string) {
				if err := os.Remove(filepath.Join(jobDir, storeSpecFile)); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "spec unreadable",
		},
		{
			name: "missing-result",
			corrupt: func(t *testing.T, jobDir string) {
				if err := os.Remove(filepath.Join(jobDir, storeResultFile)); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "result unreadable",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fs, err := dynmon.ParseFileSpec([]byte(`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2,"rule":"smp"},"initial":{"config":"minimum"},"run":{"target":1}}`))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveSpec("j000001", fs); err != nil {
				t.Fatal(err)
			}
			if err := st.SaveMeta(jobMeta{ID: "j000001", State: jobDone}); err != nil {
				t.Fatal(err)
			}
			if err := st.SaveResult("j000001", []byte(`{"rounds":1}`)); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, st.jobDir("j000001"))

			jobs, _, err := st.Load()
			if err != nil {
				t.Fatalf("Load failed outright on per-job damage: %v", err)
			}
			if len(jobs) != 1 {
				t.Fatalf("loaded %d jobs, want the damaged one", len(jobs))
			}
			if jobs[0].err == nil || !strings.Contains(jobs[0].err.Error(), tc.wantErr) {
				t.Fatalf("damage err = %v, want substring %q", jobs[0].err, tc.wantErr)
			}
		})
	}
}
