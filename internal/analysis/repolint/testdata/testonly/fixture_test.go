package fixture

func exercise() {
	_ = OnlyTested() + onlyTested()
	Seamed()
	Unreasoned()
	_ = Config{Limit: 1}
}
