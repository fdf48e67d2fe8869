package hmm_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
)

// ExampleFromConsensus builds a tiny model from a consensus string and
// prints its consensus back.
func ExampleFromConsensus() {
	abc := alphabet.New()
	cons, _ := abc.Digitize(nil, []byte("ACDEFW"))
	h, err := hmm.FromConsensus("tiny", cons, abc, hmm.DefaultBuildParams())
	if err != nil {
		panic(err)
	}
	fmt.Println(h.M, abc.Textize(h.Consensus()))
	// Output: 6 ACDEFW
}

// ExampleWrite round-trips a model through the HMMER3 ASCII format.
func ExampleWrite() {
	abc := alphabet.New()
	h, _ := hmm.Random("demo", 4, abc, hmm.DefaultBuildParams(), rand.New(rand.NewSource(1)))

	var buf bytes.Buffer
	if err := hmm.Write(&buf, h); err != nil {
		panic(err)
	}
	back, err := hmm.Read(&buf, abc)
	if err != nil {
		panic(err)
	}
	fmt.Println(back.Name, back.M)
	// Output: demo 4
}
