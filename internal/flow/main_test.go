package flow

import (
	"testing"

	"ace/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
