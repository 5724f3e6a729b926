// Package healthy type-checks: its findings must still surface even
// though a sibling package fails to type-check.
package healthy

import (
	"sync"
	"time"
)

var mu sync.Mutex

func Nap() {
	mu.Lock()
	defer mu.Unlock()
	time.Sleep(time.Millisecond) // the lockhold finding the driver test expects
}
