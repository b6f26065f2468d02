// Package loadvec is a layering fixture: an engine package coupling to
// an application substrate, next to the one sanctioned import of the
// count-min sketch (no finding).
package loadvec

import (
	"repro/internal/cluster" // want `imports application substrate`
	"repro/internal/sketch"
)

func use() int { return cluster.Nodes() + sketch.Width() }
