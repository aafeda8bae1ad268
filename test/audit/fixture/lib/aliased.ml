let via_alias x = x - 1
