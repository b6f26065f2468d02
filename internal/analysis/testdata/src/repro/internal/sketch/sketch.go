// Package sketch is a stub of the count-min sketch the layering fixtures
// import.
package sketch

// Width reports the fixture row width.
func Width() int { return 64 }
