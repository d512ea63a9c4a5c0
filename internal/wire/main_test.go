package wire

import (
	"testing"

	"dpn/internal/census"
)

// TestMain is the package's goroutine census (internal/census).
func TestMain(m *testing.M) { census.Main(m) }
