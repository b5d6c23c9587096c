package dynserve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestJobTableLifecycleRaces hammers the jobTable's whole surface from
// concurrent goroutines — put/get/list/remove, purge via a tiny retention
// window, evictAll/evictOneIdle, and per-job subscribe/broadcast/closeSubs —
// under the race detector.  The assertions are deliberately light; the test
// exists to give -race interleavings to object to.
func TestJobTableLifecycleRaces(t *testing.T) {
	table := newJobTable(time.Millisecond)
	var purged atomic.Int64
	table.onPurge = func(ids []string) { purged.Add(int64(len(ids))) }

	const (
		writers = 4
		rounds  = 200
	)
	var wg sync.WaitGroup

	// Writers: create jobs in every state, including terminal ones finished
	// in the past so the purge path constantly has work.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			states := []string{jobQueued, jobRunning, jobEvicted, jobDone, jobFailed}
			for i := 0; i < rounds; i++ {
				j := &job{
					id:    fmt.Sprintf("j%03d-%03d", w, i),
					state: states[i%len(states)],
					subs:  make(map[*jobSub]struct{}),
				}
				if jobTerminal(j.state) {
					j.finishedAt = time.Now().Add(-time.Hour)
				}
				table.put(j)
				if i%3 == 0 {
					table.remove(j.id)
				}
			}
		}(w)
	}

	// Readers and sweepers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				table.list()
				table.Len()
				table.get("j000-000")
				table.evictAll()
				table.evictOneIdle()
			}
		}()
	}

	// One shared job exercises subscribe/broadcast/unsubscribe vs closeSubs.
	shared := &job{id: "shared", state: jobRunning, subs: make(map[*jobSub]struct{})}
	table.put(shared)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if sub, _ := shared.subscribe(); sub != nil {
					select {
					case <-sub.ch:
					default:
					}
					shared.unsubscribe(sub)
				}
				shared.broadcast(streamEvent{kind: eventStep, round: i})
				if i%50 == 0 {
					shared.closeSubs()
				}
			}
		}()
	}

	wg.Wait()
	table.list() // final purge pass
	if purged.Load() == 0 {
		t.Fatal("retention purge never ran; the race test lost its purge arm")
	}
}

// TestJobTableSetSeqConcurrent pins the recovery sequence CAS: racing
// setSeq/nextSeq never hand out an id at or below the recovered high-water
// mark.
func TestJobTableSetSeqConcurrent(t *testing.T) {
	table := newJobTable(time.Minute)
	var wg sync.WaitGroup
	var minted sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			table.setSeq(int64(100 + g))
			for i := 0; i < 100; i++ {
				seq := table.nextSeq()
				if _, dup := minted.LoadOrStore(seq, true); dup {
					t.Errorf("sequence %d minted twice", seq)
				}
			}
		}(g)
	}
	wg.Wait()
	if seq := table.nextSeq(); seq < 108 {
		t.Fatalf("sequence %d did not clear the highest setSeq watermark", seq)
	}
}
