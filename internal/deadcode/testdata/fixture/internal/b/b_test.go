package b_test

import (
	"testing"

	"fixture/internal/a"
)

func TestOther(t *testing.T) { a.OtherTest() }
