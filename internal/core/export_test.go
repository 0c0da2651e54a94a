package core

// SetRoundThreshold stops b's counting rounds — SPACE's, or UPDATE's
// fresh builds' — once no frontier cell holds more than th bodies, in
// place of spaceRoundThreshold; 0 restores the rule.
func SetRoundThreshold(b Builder, th int) {
	switch b := b.(type) {
	case *spaceBuilder:
		b.threshold = th
	case *updateBuilder:
		b.threshold = th
	}
}
