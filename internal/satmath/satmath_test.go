package satmath

import (
	"testing"
	"testing/quick"
)

func TestAddU8Property(t *testing.T) {
	f := func(a, b uint8) bool {
		want := int(a) + int(b)
		if want > 255 {
			want = 255
		}
		return int(AddU8(a, b)) == want && AddU8(a, b) == AddU8(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubU8Property(t *testing.T) {
	f := func(a, b uint8) bool {
		want := int(a) - int(b)
		if want < 0 {
			want = 0
		}
		return int(SubU8(a, b)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddI16Property(t *testing.T) {
	f := func(a, b int16) bool {
		want := int(a) + int(b)
		if want > 32767 {
			want = 32767
		}
		if want < -32768 {
			want = -32768
		}
		return int(AddI16(a, b)) == want && AddI16(a, b) == AddI16(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxOps(t *testing.T) {
	if MaxU8(3, 250) != 250 || MaxU8(250, 3) != 250 || MaxU8(7, 7) != 7 {
		t.Error("MaxU8 broken")
	}
	if MaxI16(-5, 5) != 5 || MaxI16(NegInf16, 0) != 0 || MaxI16(-3, -3) != -3 {
		t.Error("MaxI16 broken")
	}
}

func TestNegInfAbsorbs(t *testing.T) {
	// NegInf16 plus any negative stays at the floor — the property the
	// Viterbi filter relies on for unreachable states.
	for _, d := range []int16{-32768, -1000, -1, 0} {
		if AddI16(NegInf16, d) != NegInf16 {
			t.Errorf("NegInf16 + %d = %d, want NegInf16", d, AddI16(NegInf16, d))
		}
	}
}

func TestSaturationEdges(t *testing.T) {
	if AddU8(255, 255) != 255 || AddU8(255, 0) != 255 || AddU8(0, 0) != 0 {
		t.Error("AddU8 edges")
	}
	if SubU8(0, 255) != 0 || SubU8(255, 255) != 0 {
		t.Error("SubU8 edges")
	}
	if AddI16(32767, 1) != 32767 || AddI16(-32768, -1) != -32768 {
		t.Error("AddI16 edges")
	}
}
