package fed

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach/internal/codec"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// decodeCount decodes a blob whose parameter count the receiver already
// knows. A blob declaring any other count is rejected before codec.Decode
// allocates for it, so a hostile or corrupt Count costs nothing.
func decodeCount(b codec.Blob, baseline []float64, want int) ([]float64, error) {
	if b.Count != want {
		return nil, fmt.Errorf("fed: blob declares %d params, want %d", b.Count, want)
	}
	return codec.Decode(b, baseline)
}
