// Package engine is a layering fixture: an engine package other than
// loadvec reaching into the count-min sketch's layout.
package engine

import "repro/internal/sketch" // want `count-min sketch is reachable only from internal/loadvec`

func use() int { return sketch.Width() }
