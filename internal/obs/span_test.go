package obs

import "testing"

// TestSamplerEveryNth: a sampler of every third unit marks the 1st,
// 4th, 7th and 10th of twelve.
func TestSamplerEveryNth(t *testing.T) {
	s := NewSampler(3)
	ids := make(map[uint64]bool)
	hits := 0
	for i := 1; i <= 12; i++ {
		id := s.Sample()
		if i%3 == 1 {
			if id == 0 {
				t.Fatalf("call %d: expected a trace ID, got 0", i)
			}
			if ids[id] {
				t.Fatalf("call %d: duplicate trace ID %d", i, id)
			}
			ids[id] = true
			hits++
		} else if id != 0 {
			t.Fatalf("call %d: unexpected sample %d", i, id)
		}
	}
	if hits != 4 {
		t.Fatalf("hits = %d, want 4", hits)
	}
}

// TestSamplerMarksTheFirstUnit: a tap that sees fewer units than the
// sampling interval still traces one, its first.
func TestSamplerMarksTheFirstUnit(t *testing.T) {
	if NewSampler(64).Sample() == 0 {
		t.Fatal("the first unit of a 1-in-64 sampler was not traced")
	}
}

func TestSamplerEveryOneSamplesAll(t *testing.T) {
	s := NewSampler(1)
	for i := 0; i < 5; i++ {
		if s.Sample() == 0 {
			t.Fatal("every=1 sampler returned 0")
		}
	}
}

func TestSamplerNilSafe(t *testing.T) {
	if s := NewSampler(0); s != nil {
		t.Fatal("NewSampler(0) should disable sampling")
	}
	var s *Sampler
	if s.Sample() != 0 || s.NewID() != 0 {
		t.Fatal("nil sampler must return 0")
	}
}

func TestSamplerIDsNonZero(t *testing.T) {
	s := NewSampler(1)
	for i := 0; i < 1000; i++ {
		if s.NewID() == 0 {
			t.Fatal("NewID returned 0")
		}
	}
}
