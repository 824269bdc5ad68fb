package hetero

import (
	"reflect"
	"sync"
	"testing"

	"skycube/internal/gen"
	"skycube/internal/gpusim"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
)

func smallEcosystem() []Device {
	return []Device{
		&CPUDevice{Threads: 2, Label: "CPU0"},
		&GPUDevice{Dev: gpusim.GTX980(), Label: "980-1"},
		&GPUDevice{Dev: gpusim.GTXTitan(), Label: "Titan"},
	}
}

func TestSDSCAllCorrectness(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 400, 5, 3)
	l, shares := SDSC(ds, smallEcosystem(), Options{})
	for _, delta := range mask.Subspaces(5) {
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if got := l.Skyline(delta); !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("δ=%05b: %v, want %v", delta, got, want.Skyline)
		}
	}
	if shares.Total() != int64(mask.NumSubspaces(5)) {
		t.Errorf("shares total %d, want %d cuboids", shares.Total(), mask.NumSubspaces(5))
	}
}

func TestMDMCAllCorrectness(t *testing.T) {
	ds := gen.Synthetic(gen.Anticorrelated, 800, 5, 5)
	res, shares, _ := MDMC(ds, smallEcosystem(), Options{Threads: 2})
	for _, delta := range mask.Subspaces(5) {
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if got := res.Cube.Skyline(delta); !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("δ=%05b: %v, want %v", delta, got, want.Skyline)
		}
	}
	if shares.Total() != int64(len(res.ExtRows)) {
		t.Errorf("shares total %d, want %d point tasks", shares.Total(), len(res.ExtRows))
	}
}

func TestSharesFractionsSumToOne(t *testing.T) {
	s := NewShares()
	s.Add("a", 30)
	s.Add("b", 50)
	s.Add("a", 20)
	fr := s.Fractions()
	if len(fr) != 2 {
		t.Fatalf("got %d devices", len(fr))
	}
	if fr[0].Name != "a" || fr[0].Tasks != 50 || fr[0].Fraction != 0.5 {
		t.Errorf("share a = %+v", fr[0])
	}
	sum := 0.0
	for _, f := range fr {
		sum += f.Fraction
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestEmptySharesFractions(t *testing.T) {
	s := NewShares()
	if len(s.Fractions()) != 0 || s.Total() != 0 {
		t.Error("empty shares should be empty")
	}
	s.Add("x", 0)
	if fr := s.Fractions(); len(fr) != 1 || fr[0].Fraction != 0 {
		t.Error("zero-task device should report zero fraction")
	}
}

func TestEveryDeviceContributesOnLargeInput(t *testing.T) {
	// With enough tasks, dynamic pulling gives every device work once no
	// device can drain the queue before every other has grabbed once.
	ds := gen.Synthetic(gen.Anticorrelated, 4000, 6, 7)
	devices := smallEcosystem()
	var all sync.WaitGroup
	all.Add(len(devices))
	for i, d := range devices {
		devices[i] = &startBarrier{Device: d, all: &all}
	}
	_, shares, _ := MDMC(ds, devices, Options{Threads: 2})
	fr := shares.Fractions()
	if len(fr) != 3 {
		t.Fatalf("only %d devices contributed: %+v", len(fr), fr)
	}
	for _, f := range fr {
		if f.Tasks == 0 {
			t.Errorf("device %s did no work", f.Name)
		}
	}
}

func TestDefaultEcosystem(t *testing.T) {
	// The paper's machine (§7.1): two CPU sockets, two GTX 980s, one Titan.
	devs := Devices(8, true, gpusim.GTX980(), gpusim.GTX980(), gpusim.GTXTitan())
	var names []string
	for _, d := range devs {
		names = append(names, d.Name())
	}
	if want := []string{"CPU0", "CPU1", "GTX980-1", "GTX980-2", "Titan-1"}; !reflect.DeepEqual(names, want) {
		t.Errorf("devices %v, want %v", names, want)
	}
	// Degenerate thread count still yields at least one thread per socket.
	devs = Devices(1, true, gpusim.GTX980())
	for _, d := range devs[:2] {
		if cpu := d.(*CPUDevice); cpu.threads() < 1 {
			t.Error("CPU device must keep at least one thread")
		}
	}
	// CPU-only is one device over every thread; a lone card keeps its name.
	if devs := Devices(4, true); len(devs) != 1 || devs[0].Name() != "CPU" || devs[0].(*CPUDevice).Threads != 4 {
		t.Errorf("CPU-only devices %+v", devs)
	}
	if devs := Devices(4, false, gpusim.GTX980()); len(devs) != 1 || devs[0].Name() != "GTX980" {
		t.Errorf("one-card devices %+v", devs)
	}
}

func TestCPUDeviceDefaults(t *testing.T) {
	c := &CPUDevice{}
	if c.Name() != "CPU" {
		t.Errorf("default name = %s", c.Name())
	}
	if c.threads() != 1 {
		t.Errorf("default threads = %d", c.threads())
	}
	g := &GPUDevice{Dev: gpusim.GTX980()}
	if g.Name() != "GTX980" {
		t.Errorf("GPU default name = %s", g.Name())
	}
}

func TestSDSCAllPartial(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 300, 6, 9)
	l, _ := SDSC(ds, smallEcosystem(), Options{MaxLevel: 2})
	for _, delta := range mask.Subspaces(6) {
		got := l.Skyline(delta)
		if mask.Count(delta) > 2 {
			if got != nil {
				t.Errorf("δ=%b above MaxLevel materialised", delta)
			}
			continue
		}
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("δ=%06b: %v, want %v", delta, got, want.Skyline)
		}
	}
}

func TestTwoDeviceSharesMatchTrace(t *testing.T) {
	// Deterministic setup: two single-threaded CPU devices drain the MDMC
	// queue. The fractions must sum to 1.0 and the per-device task counts
	// must equal the chunk sizes the trace recorded for that device.
	ds := gen.Synthetic(gen.Anticorrelated, 6000, 6, 13)
	devices := []Device{
		&CPUDevice{Threads: 1, Label: "dev-a"},
		&CPUDevice{Threads: 1, Label: "dev-b"},
	}
	tr := obs.New()
	res, shares, _ := MDMC(ds, devices, Options{Threads: 2, Trace: tr})

	// The queue is dynamic, so the split between the devices varies run to
	// run; the invariants are that the fractions cover the whole queue and
	// that every device's share equals what its trace track recorded.
	fr := shares.Fractions()
	if len(fr) == 0 {
		t.Fatal("no device contributed")
	}
	sum := 0.0
	for _, f := range fr {
		sum += f.Fraction
	}
	if sum < 0.9999 || sum > 1.0001 {
		t.Errorf("fractions sum to %v, want 1.0", sum)
	}
	if shares.Total() != int64(len(res.ExtRows)) {
		t.Errorf("total tasks %d != |S⁺(P)| = %d", shares.Total(), len(res.ExtRows))
	}

	// Group chunk spans by device and compare N sums with the shares.
	traced := map[string]int64{}
	for _, s := range tr.Spans() {
		if s.Cat == obs.CatChunk {
			traced[DeviceOfTrack(s.Track)] += s.N
		}
	}
	for _, f := range fr {
		if traced[f.Name] != f.Tasks {
			t.Errorf("device %s: trace says %d points, shares say %d",
				f.Name, traced[f.Name], f.Tasks)
		}
	}
}

func TestChunkTrackRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name  string
		lane  int
		track string
	}{
		{"CPU0", 0, "CPU0"},
		{"CPU0", 3, "CPU0#3"},
		{"980-1", 0, "980-1"},
	} {
		if got := ChunkTrack(c.name, c.lane); got != c.track {
			t.Errorf("ChunkTrack(%s, %d) = %s, want %s", c.name, c.lane, got, c.track)
		}
		if got := DeviceOfTrack(c.track); got != c.name {
			t.Errorf("DeviceOfTrack(%s) = %s, want %s", c.track, got, c.name)
		}
	}
}
