package storage

import (
	"testing"

	"ace/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
