package alphabet_test

import (
	"fmt"

	"hmmer3gpu/internal/alphabet"
)

// ExamplePack shows the paper's residue packing: six 5-bit residues
// per 32-bit word, with the sentinel flagging the padding slots.
func ExamplePack() {
	abc := alphabet.New()
	dsq, _ := abc.Digitize(nil, []byte("ACDEFGH")) // 7 residues -> 2 words
	words := alphabet.Pack(dsq)
	fmt.Println(len(words), abc.Textize(alphabet.Unpack(words, len(dsq))))
	fmt.Println(alphabet.PackedAt(words, 7) == alphabet.PackSentinel)
	// Output:
	// 2 ACDEFGH
	// true
}
