package sim

import (
	"fmt"
	"testing"
)

// spawnCoro starts actor id as a coroutine, first resumed d cycles from
// now. Each step schedules the event that resumes the actor — after
// trying to complete it in place with Elapse, as kern's Env.Run does —
// and then drives the engine until it fires, or parks if Drive refuses.
func (w *elapseWorld) spawnCoro(id int, d Cycles) {
	var resume func()
	co := NewCoro(fmt.Sprintf("actor%d", id), func(co *Coro) {
		for {
			w.checkLookahead()
			d, more := w.step(id)
			w.checkLookahead()
			if !more {
				w.actors--
				return
			}
			if w.inline && w.e.Elapse(d) {
				continue
			}
			w.e.After(d, resume)
			if w.e.Drive(co) {
				w.driven++
				continue
			}
			co.Park()
		}
	})
	resume = co.Resume
	w.cos = append(w.cos, co)
	w.fires = append(w.fires, resume)
	w.e.After(d, resume)
}

// newCoroWorld is an elapseWorld whose actors are coroutines; they are
// killed when the test ends.
func newCoroWorld(tb testing.TB, seed uint64) *elapseWorld {
	w := newElapseWorld(tb, seed, true)
	w.coros = true
	tb.Cleanup(func() {
		for _, co := range w.cos {
			co.Kill()
		}
	})
	return w
}

// runDriveDiff drives a world of callback actors, a world of coroutine
// actors that always park (SetAlwaysPark) and one whose actors drive,
// through one seeded script: handing control to a coroutine and back,
// or firing events from its stack, must not change which events fire,
// in what order, or any counter. It returns how many waits the driving
// actors ended without a switch.
func runDriveDiff(t testing.TB, seed uint64, rounds int) int {
	parked, driven := newCoroWorld(t, seed), newCoroWorld(t, seed)
	parked.park = true
	runScript(t, seed, rounds, []string{"callback", "parked", "driven"},
		newElapseWorld(t, seed, true), parked, driven)
	if parked.driven != 0 {
		t.Fatalf("seed %d: %d waits driven with every Drive refused", seed, parked.driven)
	}
	return driven.driven
}

// TestDriveMatchesParking is the differential test of Engine.Drive
// against parking, with callback actors as the common reference.
func TestDriveMatchesParking(t *testing.T) {
	seeds, rounds := 40, 200
	if testing.Short() {
		seeds = 8
	}
	driven := 0
	for s := 1; s <= seeds; s++ {
		driven += runDriveDiff(t, uint64(s), rounds)
	}
	if driven == 0 {
		t.Fatal("no actor ended a wait by driving: the test compares nothing")
	}
}

// TestDriveLeavesTheWindowAtTheHorizon is the case where Drive must
// refuse without moving the window: the band is empty and the heap's
// minimum lies past the run's horizon. Advancing there would leave the
// band's buckets read relative to a now below the window, and the Run
// that follows would fire the event a whole band early (bug D′).
func TestDriveLeavesTheWindowAtTheHorizon(t *testing.T) {
	for _, park := range []bool{false, true} {
		restore := SetAlwaysPark(park)
		e := NewEngine(1)
		const at = bandBuckets + 10
		var firedAt Time
		co := NewCoro("ctx", func(co *Coro) {
			e.After(at, func() {
				firedAt = e.Now()
				co.Resume()
			})
			if !e.Drive(co) {
				co.Park()
			}
		})
		e.At(0, co.Resume)
		e.Run(100)
		e.Run(Forever - 1)
		restore()
		if firedAt != at || !co.Done() {
			t.Fatalf("park=%v: the event due at %d fired at %d (done %v)", park, at, firedAt, co.Done())
		}
	}
}

// FuzzDrive runs runDriveDiff's script on fuzzed seeds. The corpus seed
// in testdata is the case TestDriveLeavesTheWindowAtTheHorizon pins: a
// Drive that advanced the window at the horizon fails it.
func FuzzDrive(f *testing.F) {
	for _, s := range []uint64{1, 2, 3, 0xdeadbeef} {
		f.Add(s, uint8(60))
	}
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint8) {
		runDriveDiff(t, seed, int(rounds)%120+1)
	})
}
