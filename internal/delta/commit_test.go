package delta

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skycube/internal/gen"
	"skycube/internal/mask"
)

// gatedJournal is a Journal whose Commit blocks until the test releases it.
// It logs every call in order; a Commit also logs the epoch being served
// when it was called, so the log shows what was published before the
// marker was durable.
type gatedJournal struct {
	u       *Updater
	entered chan struct{} // one send per Commit called
	release chan struct{} // one receive per Commit allowed to return

	mu    sync.Mutex
	calls []string
}

func newGatedJournal() *gatedJournal {
	return &gatedJournal{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (j *gatedJournal) note(format string, args ...any) {
	j.mu.Lock()
	j.calls = append(j.calls, fmt.Sprintf(format, args...))
	j.mu.Unlock()
}

// log returns the calls so far and forgets them.
func (j *gatedJournal) log() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.calls
	j.calls = nil
	return out
}

func (j *gatedJournal) LogInsert(uint64, int32, []float32) error { j.note("insert"); return nil }
func (j *gatedJournal) LogDelete(uint64, int32) error            { j.note("delete"); return nil }
func (j *gatedJournal) LogBatch(string, int, []byte) error       { j.note("batch"); return nil }

func (j *gatedJournal) LogEpoch(compact bool, epoch uint64, live int) error {
	j.note("epoch compact=%v %d live=%d", compact, epoch, live)
	return nil
}

func (j *gatedJournal) Commit() error {
	j.note("commit serving %d", j.u.Current().Epoch())
	j.entered <- struct{}{}
	<-j.release
	return nil
}

// waitParked waits until some goroutine's stack holds frame: the updater
// blocked there, its epoch computed.
func waitParked(t *testing.T, frame string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), frame) {
			return
		}
	}
	t.Fatalf("no goroutine reached %s", frame)
}

// TestEpochPublishedOnlyWhenDurable holds an epoch marker's commit open and
// checks that a flush (of inserts, and of deletes) and a compaction compute
// their epoch meanwhile but publish it only once the commit returns, while
// readers keep answering from the previous epoch. The journal sees the
// marker, then the commit, and the commit sees the previous epoch served.
func TestEpochPublishedOnlyWhenDurable(t *testing.T) {
	const d = 4
	ds := gen.Synthetic(gen.Anticorrelated, 300, d, 11)
	u := NewUpdater(ds, Options{Threads: 2})
	defer u.Close()
	j := newGatedJournal()
	j.u = u
	u.AttachJournal(j)

	// A reader answering throughout, from whatever epoch is published.
	var reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := u.Current()
			for _, id := range snap.Skyline(mask.Full(d)) {
				if !snap.Alive(id) {
					t.Errorf("epoch %d serves dead id %d", snap.Epoch(), id)
					return
				}
			}
			reads.Add(1)
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	pts := gen.Synthetic(gen.Anticorrelated, 20, d, 12)
	for _, c := range []struct {
		name    string
		buffer  func()
		advance func() *Snapshot
	}{
		{"flush inserts", func() {
			for i := 0; i < pts.N; i++ {
				if _, err := u.Insert(pts.Point(i)); err != nil {
					t.Fatal(err)
				}
			}
		}, u.Flush},
		{"flush deletes", func() {
			// Three full-space members and five other points.
			sky := u.Current().Skyline(mask.Full(d))
			victims := slices.Clone(sky[:3])
			for id := int32(0); len(victims) < 8; id++ {
				if !slices.Contains(sky, id) {
					victims = append(victims, id)
				}
			}
			for _, id := range victims {
				if err := u.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}, u.Flush},
		{"compact", func() {}, u.Compact},
	} {
		ok := t.Run(c.name, func(t *testing.T) {
			c.buffer()
			prev := u.Current()
			j.log()
			done := make(chan *Snapshot, 1)
			go func() { done <- c.advance() }()
			<-j.entered
			released := false
			defer func() {
				if !released { // a failed check: let the updater finish
					j.release <- struct{}{}
					<-done
				}
			}()
			waitParked(t, "delta.commit.wait")

			if got := u.Current(); got != prev {
				t.Fatalf("epoch %d published while its marker's commit is open (want %d)", got.Epoch(), prev.Epoch())
			}
			if s := u.At(prev.Epoch() + 1); s != nil {
				t.Fatalf("At(%d) answers while its marker's commit is open", prev.Epoch()+1)
			}
			for r0 := reads.Load(); reads.Load() < r0+3; {
				runtime.Gosched()
			}
			select {
			case s := <-done:
				t.Fatalf("%s returned epoch %d before its commit did", c.name, s.Epoch())
			default:
			}

			j.release <- struct{}{}
			released = true
			snap := <-done
			if snap.Epoch() != prev.Epoch()+1 || u.Current() != snap || u.At(snap.Epoch()) != snap {
				t.Fatalf("after the commit: returned epoch %d, current %d, want %d published",
					snap.Epoch(), u.Current().Epoch(), prev.Epoch()+1)
			}
			want := []string{
				fmt.Sprintf("epoch compact=%v %d live=%d", c.name == "compact", snap.Epoch(), snap.Live()),
				fmt.Sprintf("commit serving %d", prev.Epoch()),
			}
			if got := j.log(); !slices.Equal(got, want) {
				t.Fatalf("journal calls %q, want %q", got, want)
			}
		})
		if !ok {
			break
		}
	}
	if ins, del := u.Pending(); ins+del != 0 {
		t.Fatalf("%d inserts and %d deletes still pending", ins, del)
	}
}

// TestNoJournalStartsNoCommit: an in-memory updater, and one rebuilt for
// WAL replay before its journal is attached, start no commit goroutine —
// and one attached afterwards commits each marker once.
func TestNoJournalStartsNoCommit(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 100, 3, 5)
	mem := NewUpdater(ds, Options{Threads: 1})
	defer mem.Close()
	replay, err := NewUpdaterFrom(RestoreState{Dims: 3, Epoch: 4, Live: 100, Vals: ds.Vals[:ds.N*ds.Dims]}, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	for _, u := range []*Updater{mem, replay} {
		if c := u.startCommit(); c != nil {
			t.Fatal("an updater without a journal started a commit")
		}
		if err := u.Delete(7); err != nil {
			t.Fatal(err)
		}
		u.Flush()
		u.Compact()
	}

	j := newGatedJournal()
	j.u = replay
	replay.AttachJournal(j)
	if err := replay.Delete(8); err != nil {
		t.Fatal(err)
	}
	close(j.release)
	replay.Flush()
	want := []string{"delete", "epoch compact=false 7 live=98", "commit serving 6"}
	if got := j.log(); !slices.Equal(got, want) {
		t.Fatalf("journal calls %q, want %q", got, want)
	}
}
