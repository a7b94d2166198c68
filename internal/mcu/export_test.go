package mcu

// BombChipFile exposes the forged-array-header builder to the chip-file
// fuzz target, which lives in the external test package.
var BombChipFile = bombChipFile

// NonFiniteChipFile exposes the non-finite cell-state file to the same
// fuzz target's seeds.
var NonFiniteChipFile = nonFiniteChipFile
